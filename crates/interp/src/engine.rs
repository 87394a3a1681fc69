//! The execution API: one [`RunConfig`] builder for every way of
//! running a compiled program.
//!
//! Every execution — sequential run, one rank over an existing
//! communicator, a whole in-process mesh, checkpointed or resumed — goes
//! through one [`RunConfig`]. The config collects the knobs (plan,
//! input, statement budget, overlap, worker threads, checkpoint cadence,
//! telemetry, resume directory), compiles the program's [`KernelSet`]
//! once (or selects from the set a compile kept), and shares it across
//! every rank thread of a parallel run.
//!
//! Comm-free loop nests the kernel compiler proves eligible
//! ([`crate::kernel`]) run as fused compiled kernels with pre-resolved
//! strides, optionally split across worker threads. Every other
//! statement is tree-walked ([`crate::exec`]) mid-run with no observable
//! difference: op counters, error text and line attribution, and trace
//! span structure all match. The tree walk alone is the reference the
//! tests and `--verify` compare against ([`RunConfig::reference`]).

use std::path::PathBuf;

use crate::elastic::repartition;
use crate::exec::{run_program, NoHooks};
use crate::kernel::KernelSet;
use crate::machine::{Frame, Machine, RunError};
use crate::spmd::{run_rank_traced_impl, CheckpointOpts, RankResult, RankRun};
use autocfd_codegen::{EnginePref, SpmdPlan};
use autocfd_fortran::SourceFile;
use autocfd_runtime::checkpoint::{latest_consistent_epoch, load_epoch, Snapshot};
use autocfd_runtime::{run_spmd, Comm, TelemetryConfig};

/// Builder for one execution of a (transformed or sequential) program.
///
/// ```
/// use autocfd_interp::engine::RunConfig;
/// # let src = "      program t\n      x = 1.0\n      end\n";
/// let file = autocfd_fortran::parse(src).unwrap();
/// let (m, frame) = RunConfig::new(&file).threads(4).run_sequential().unwrap();
/// assert_eq!(frame.get_scalar("x"), autocfd_interp::Value::Real(1.0));
/// # let _ = m;
/// ```
///
/// The worker-thread count resolves weakest to strongest: 1, the
/// attached plan's `threads`, then an explicit [`RunConfig::threads`].
pub struct RunConfig<'a> {
    file: &'a SourceFile,
    plan: Option<&'a SpmdPlan>,
    input: Vec<f64>,
    stmt_limit: u64,
    overlap: bool,
    threads: Option<u32>,
    reference: bool,
    kernel_set: Option<&'a KernelSet>,
    ckpt: Option<CheckpointOpts>,
    resume_dir: Option<PathBuf>,
    resume_epoch: Option<u64>,
    telemetry: Option<TelemetryConfig>,
}

impl<'a> RunConfig<'a> {
    /// A fresh config for `file`: no plan, empty input, unlimited
    /// statements, overlap off, one worker thread per rank.
    pub fn new(file: &'a SourceFile) -> RunConfig<'a> {
        RunConfig {
            file,
            plan: None,
            input: Vec::new(),
            stmt_limit: 0,
            overlap: false,
            threads: None,
            reference: false,
            kernel_set: None,
            ckpt: None,
            resume_dir: None,
            resume_epoch: None,
            telemetry: None,
        }
    }

    /// Attach the SPMD plan (required for the parallel executors). The
    /// plan's `threads` becomes this run's default, which an explicit
    /// [`RunConfig::threads`] call overrides regardless of call order,
    /// and its `kernel_nests` name the nests compiled.
    pub fn plan(mut self, plan: &'a SpmdPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The program's list-directed input queue (each rank of a parallel
    /// run gets its own copy).
    pub fn input(mut self, input: Vec<f64>) -> Self {
        self.input = input;
        self
    }

    /// Statement budget; 0 (the default) is unlimited.
    pub fn stmt_limit(mut self, limit: u64) -> Self {
        self.stmt_limit = limit;
        self
    }

    /// Hide eligible halo exchanges behind interior computation.
    pub fn overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Compatibility shim that changes nothing: every run takes the
    /// compiled-kernel path. Removed with ROADMAP item 1's `[benchmark]`
    /// PR.
    #[doc(hidden)]
    pub fn engine(self, _kind: EnginePref) -> Self {
        self
    }

    /// Tree-walk every statement, sequential and parallel runs alike:
    /// the reference executor tests compare the compiled kernels
    /// against.
    #[doc(hidden)]
    pub fn reference(mut self) -> Self {
        self.reference = true;
        self
    }

    /// Run with kernels already compiled from this config's file (the
    /// set `autocfd::compile` keeps), instead of compiling them again.
    pub fn kernel_set(mut self, set: &'a KernelSet) -> Self {
        self.kernel_set = Some(set);
        self
    }

    /// Worker threads per rank (≥ 1) for the compiled kernels' interior
    /// split, overriding the plan.
    pub fn threads(mut self, n: u32) -> Self {
        self.threads = Some(n);
        self
    }

    /// Write per-rank snapshots at checkpoint-safe sync points.
    pub fn checkpoint(mut self, opts: CheckpointOpts) -> Self {
        self.ckpt = Some(opts);
        self
    }

    /// Stream live per-rank stat frames while the program runs (see
    /// [`autocfd_runtime::telemetry`]): each rank aggregates its trace
    /// spans into periodic frames published over the transport and, when
    /// the config names a spool directory, to
    /// `telemetry-rank-<r>.jsonl` files `acfc top DIR` tails.
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Resume the parallel executors from the checkpoint directory
    /// `dir` instead of starting fresh. By default the newest epoch
    /// every rank of the *recorded* mesh completed is used; pin one
    /// with [`RunConfig::resume_epoch`]. The snapshots need not match
    /// the attached plan's rank count — when they differ (or the
    /// partition shape differs) the cut is elastically re-decomposed
    /// through [`crate::elastic::repartition`], so an N-rank checkpoint
    /// resumes bit-exactly on an M-rank plan.
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.resume_dir = Some(dir.into());
        self
    }

    /// Pin the epoch a [`RunConfig::resume_from`] run loads, instead of
    /// the newest consistent one. Required when several processes of
    /// one mesh resume from a directory that is still being written to
    /// (a launcher picks the epoch once; workers must not re-infer it).
    pub fn resume_epoch(mut self, epoch: u64) -> Self {
        self.resume_epoch = Some(epoch);
        self
    }

    /// Load (and, when geometry differs, elastically repartition) the
    /// snapshots this config resumes from: `Ok(None)` when the config
    /// has no resume directory, otherwise one snapshot per rank of
    /// `plan`. Deterministic, so every process of a mesh that calls it
    /// independently reconstructs the identical state.
    fn load_resume_snaps(&self, plan: &SpmdPlan) -> Result<Option<Vec<Snapshot>>, RunError> {
        let Some(dir) = &self.resume_dir else {
            return Ok(None);
        };
        let epoch = match self.resume_epoch {
            Some(e) => e,
            None => latest_consistent_epoch(dir).ok_or_else(|| {
                RunError::new(format!(
                    "resume: no consistent epoch under {}",
                    dir.display()
                ))
            })?,
        };
        let snaps = load_epoch(dir, epoch).map_err(|e| RunError::new(format!("resume: {e}")))?;
        let same_geometry = snaps.len() == plan.ranks() as usize
            && (snaps[0].parts.is_empty() || snaps[0].parts == plan.partition.spec.parts);
        if same_geometry {
            return Ok(Some(snaps));
        }
        repartition(&snaps, plan, self.file)
            .map(Some)
            .map_err(|e| RunError::new(format!("resume: {e}")))
    }

    /// The thread count this config resolves to (explicit > plan > 1).
    fn resolved_threads(&self) -> u32 {
        self.threads
            .or(self.plan.map(|p| p.threads))
            .unwrap_or(1)
            .max(1)
    }

    /// Compile this config's [`KernelSet`], honoring the plan's
    /// `kernel_nests` hints when present (the transformed program's
    /// proven-eligible nests); without a plan the whole program is
    /// walked for eligibility. A [`RunConfig::kernel_set`] is selected
    /// from, not compiled again. The one place a run's kernels are built;
    /// the name is a compatibility shim, removed with ROADMAP item 1's
    /// `[benchmark]` PR.
    #[doc(hidden)]
    pub fn build_engine(&self) -> KernelSet {
        let hints = self
            .plan
            .map(|p| p.kernel_nests.as_slice())
            .filter(|h| !h.is_empty());
        let threads = self.resolved_threads() as usize;
        match self.kernel_set {
            Some(set) => set.select(hints, threads),
            None => KernelSet::build(self.file, hints, threads),
        }
    }

    /// The kernels this run executes with: none for a
    /// [`RunConfig::reference`] run.
    fn kernels(&self) -> Option<KernelSet> {
        (!self.reference).then(|| self.build_engine())
    }

    /// Run the program sequentially (no hooks, no plan required).
    pub fn run_sequential(&self) -> Result<(Machine, Frame), RunError> {
        run_program(
            self.file,
            self.input.clone(),
            &mut NoHooks,
            self.stmt_limit,
            self.kernels().as_ref(),
        )
    }

    fn plan_or_err(&self) -> Result<&'a SpmdPlan, RunError> {
        self.plan.ok_or_else(|| {
            RunError::new("RunConfig: parallel execution needs a plan (use .plan())")
        })
    }

    /// Attach this config's telemetry sink (if any) to `comm`.
    fn attach_telemetry(&self, comm: &Comm) {
        if let Some(config) = &self.telemetry {
            comm.enable_telemetry(config.clone());
        }
    }

    /// Execute one rank over an existing communicator; the rank identity
    /// comes from `comm.rank()`.
    pub fn run_rank(&self, comm: &Comm) -> Result<RankResult, RunError> {
        self.run_rank_traced(comm).into_result()
    }

    /// Execute one rank, always returning trace and statistics — even
    /// when the program fails mid-run. When the config carries a
    /// [`RunConfig::resume_from`] directory, the machine is rebuilt,
    /// overwritten from this rank's (possibly repartitioned) snapshot,
    /// and execution re-enters at the snapshot's cursor by re-executing
    /// the cut sync.
    pub fn run_rank_traced(&self, comm: &Comm) -> RankRun {
        let fail = |e: RunError| RankRun {
            outcome: Err(e),
            comm_stats: comm.stats().snapshot(),
            wire_stats: comm.wire_stats(),
            phases: comm.phase_names(),
            trace: comm.take_trace(),
            epoch_unix_ns: autocfd_runtime::epoch_unix_ns(comm.epoch()),
        };
        let plan = match self.plan_or_err() {
            Ok(p) => p,
            Err(e) => return fail(e),
        };
        let snaps = match self.load_resume_snaps(plan) {
            Ok(s) => s,
            Err(e) => return fail(e),
        };
        let kernels = self.kernels();
        self.attach_telemetry(comm);
        run_rank_traced_impl(
            self.file,
            plan,
            self.input.clone(),
            self.stmt_limit,
            comm,
            self.overlap,
            self.ckpt.clone(),
            snaps.as_ref().map(|s| &s[comm.rank()]),
            kernels.as_ref(),
        )
    }

    /// Run the plan's full mesh on `plan.ranks()` in-process rank
    /// threads. The kernels are built once and shared by every rank (one
    /// kernel compilation, one worker pool); likewise any resume
    /// snapshots are loaded and repartitioned once.
    pub fn run_parallel(&self) -> Result<Vec<RankResult>, RunError> {
        self.run_parallel_traced()
            .into_iter()
            .map(RankRun::into_result)
            .collect()
    }

    /// Like [`RunConfig::run_parallel`], but every rank returns a
    /// [`RankRun`] — traces and statistics survive individual rank
    /// failures.
    pub fn run_parallel_traced(&self) -> Vec<RankRun> {
        let dead = |e: RunError| {
            vec![RankRun {
                outcome: Err(e),
                comm_stats: (0, 0, 0, 0),
                wire_stats: Default::default(),
                phases: Vec::new(),
                trace: Vec::new(),
                epoch_unix_ns: 0,
            }]
        };
        let plan = match self.plan_or_err() {
            Ok(p) => p,
            Err(e) => return dead(e),
        };
        let snaps = match self.load_resume_snaps(plan) {
            Ok(s) => s,
            Err(e) => return dead(e),
        };
        let kernels = self.kernels();
        let n = plan.ranks() as usize;
        run_spmd(n, |comm| {
            self.attach_telemetry(&comm);
            run_rank_traced_impl(
                self.file,
                plan,
                self.input.clone(),
                self.stmt_limit,
                &comm,
                self.overlap,
                self.ckpt.clone(),
                snaps.as_ref().map(|s| &s[comm.rank()]),
                kernels.as_ref(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::kernel_nests;

    fn parse(src: &str) -> SourceFile {
        autocfd_fortran::parse(src).unwrap()
    }

    const STENCIL: &str = "
      program s
      real a(16,16), b(16,16)
      integer i, j
      do 11 j = 1, 16
        do 10 i = 1, 16
          a(i,j) = i + 2*j
10      continue
11    continue
      do 21 j = 2, 15
        do 20 i = 2, 15
          b(i,j) = 0.25*(a(i-1,j)+a(i+1,j)+a(i,j-1)+a(i,j+1))
20      continue
21    continue
      write(*,*) b(8,8)
      end
";

    #[test]
    fn tree_and_kernel_sequential_runs_are_bit_identical() {
        let file = parse(STENCIL);
        let (mt, ft) = RunConfig::new(&file).reference().run_sequential().unwrap();
        let (mk, fk) = RunConfig::new(&file).threads(4).run_sequential().unwrap();
        assert_eq!(mt.ops, mk.ops);
        assert_eq!(mt.output, mk.output);
        assert_eq!(ft.scalars.len(), fk.scalars.len());
    }

    #[test]
    fn resolution_order_is_explicit_over_plan_over_default() {
        let file = parse(STENCIL);
        let cfg = RunConfig::new(&file);
        assert_eq!(cfg.resolved_threads(), 1);
        assert_eq!(cfg.threads(3).resolved_threads(), 3);
    }

    #[test]
    fn parallel_without_plan_is_a_runtime_error_not_a_panic() {
        let file = parse(STENCIL);
        let err = RunConfig::new(&file).run_parallel().unwrap_err();
        assert!(err.to_string().contains("needs a plan"), "{err}");
    }

    #[test]
    fn kernel_engine_compiles_hinted_subset() {
        let file = parse(STENCIL);
        let all = kernel_nests(&file);
        assert_eq!(all.len(), 2, "both nests are eligible");
        assert_eq!(RunConfig::new(&file).build_engine().nests().len(), 2);
        let set = KernelSet::build(&file, Some(&all[..1]), 2);
        assert_eq!(set.nests().len(), 1, "hints restrict compilation");
        assert!(RunConfig::new(&file).reference().kernels().is_none());
    }
}
