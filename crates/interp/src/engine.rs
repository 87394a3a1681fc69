//! The unified execution API: [`Engine`] backends driven by a
//! [`RunConfig`] builder.
//!
//! Every way of executing a compiled program — sequential reference run,
//! one rank over an existing communicator, a whole in-process mesh,
//! checkpointed or resumed — goes through one [`RunConfig`]. The config
//! collects the knobs that used to be positional parameters (plan,
//! input, statement budget, overlap, checkpoint cadence) plus the engine
//! selection, builds the chosen [`Engine`] once, and shares it across
//! every rank thread of a parallel run.
//!
//! Two engines exist, and they are bit-exact with each other:
//!
//! * [`TreeEngine`] — the reference tree-walk over the AST
//!   ([`crate::exec`]); always correct, never surprising.
//! * [`KernelEngine`] — comm-free loop nests the kernel compiler proved
//!   eligible ([`crate::kernel`]) run as fused compiled kernels with
//!   pre-resolved strides, optionally split across worker threads;
//!   everything else falls back to the tree walk mid-run with no
//!   observable difference (op counters, error text and line
//!   attribution, trace span structure all match).
//!
//! Which engine runs is an [`EnginePref`] carried in the
//! [`SpmdPlan`] itself, so a plan artifact executed remotely uses the
//! engine the submitting client chose; [`RunConfig::engine`] overrides
//! it per run.

use std::path::PathBuf;

use crate::elastic::repartition;
use crate::exec::{run_program_capture_with, NoHooks};
use crate::kernel::{eligible_nests, KernelSet};
use crate::machine::{Frame, Machine, RunError};
use crate::spmd::{run_rank_traced_impl, CheckpointOpts, RankResult, RankRun};
use autocfd_codegen::{EnginePref, SpmdPlan};
use autocfd_fortran::ast::StmtId;
use autocfd_fortran::SourceFile;
use autocfd_runtime::checkpoint::{latest_consistent_epoch, load_epoch, Snapshot};
use autocfd_runtime::{run_spmd, Comm, TelemetryConfig};

/// An execution backend. Both implementations produce bit-identical
/// machines, frames, op counters, errors, and trace span structure; the
/// trait exists so callers can hold either without caring which.
pub trait Engine: Send + Sync {
    /// Which backend this is (the value recorded in plans and traces).
    fn kind(&self) -> EnginePref;

    /// The compiled kernel set, when this engine has one. `None` makes
    /// the executor tree-walk everything.
    fn kernels(&self) -> Option<&KernelSet>;
}

/// The reference tree-walk engine: statement dispatch over the AST.
#[derive(Debug, Default)]
pub struct TreeEngine;

impl Engine for TreeEngine {
    fn kind(&self) -> EnginePref {
        EnginePref::Tree
    }

    fn kernels(&self) -> Option<&KernelSet> {
        None
    }
}

/// The compiled-kernel engine: eligible comm-free loop nests run as
/// fused kernels (threaded across `threads` workers when the nest is
/// provably race-free); everything else tree-walks.
pub struct KernelEngine {
    set: KernelSet,
}

impl KernelEngine {
    /// Compile kernels for `file`'s eligible nests. `hints` restricts
    /// compilation to the listed outermost `do` statements (a plan's
    /// `kernel_nests`); `None` discovers eligibility by walking the
    /// whole program. `threads` > 1 adds a worker pool for the interior
    /// split.
    pub fn compile(file: &SourceFile, hints: Option<&[StmtId]>, threads: u32) -> KernelEngine {
        KernelEngine {
            set: KernelSet::build(file, hints, threads as usize),
        }
    }

    /// The compiled kernel set (mainly for introspection in tests).
    pub fn set(&self) -> &KernelSet {
        &self.set
    }
}

impl Engine for KernelEngine {
    fn kind(&self) -> EnginePref {
        EnginePref::Kernel
    }

    fn kernels(&self) -> Option<&KernelSet> {
        Some(&self.set)
    }
}

/// Builder for one execution of a (transformed or sequential) program.
///
/// ```
/// use autocfd_interp::engine::RunConfig;
/// use autocfd_codegen::EnginePref;
/// # let src = "      program t\n      x = 1.0\n      end\n";
/// let file = autocfd_fortran::parse(src).unwrap();
/// let (m, frame) = RunConfig::new(&file)
///     .engine(EnginePref::Kernel)
///     .threads(4)
///     .run_sequential()
///     .unwrap();
/// assert_eq!(frame.get_scalar("x"), autocfd_interp::Value::Real(1.0));
/// # let _ = m;
/// ```
///
/// Engine resolution, weakest to strongest: the default ([`Tree`]), the
/// attached plan's `engine`/`threads` fields, then explicit
/// [`RunConfig::engine`] / [`RunConfig::threads`] calls.
///
/// [`Tree`]: EnginePref::Tree
pub struct RunConfig<'a> {
    file: &'a SourceFile,
    plan: Option<&'a SpmdPlan>,
    input: Vec<f64>,
    stmt_limit: u64,
    overlap: bool,
    engine: Option<EnginePref>,
    threads: Option<u32>,
    ckpt: Option<CheckpointOpts>,
    resume_dir: Option<PathBuf>,
    resume_epoch: Option<u64>,
    telemetry: Option<TelemetryConfig>,
}

impl<'a> RunConfig<'a> {
    /// A fresh config for `file`: no plan, empty input, unlimited
    /// statements, overlap off, tree engine.
    pub fn new(file: &'a SourceFile) -> RunConfig<'a> {
        RunConfig {
            file,
            plan: None,
            input: Vec::new(),
            stmt_limit: 0,
            overlap: false,
            engine: None,
            threads: None,
            ckpt: None,
            resume_dir: None,
            resume_epoch: None,
            telemetry: None,
        }
    }

    /// Attach the SPMD plan (required for the parallel executors). The
    /// plan's `engine`/`threads`/`kernel_nests` become the defaults for
    /// this run; explicit [`RunConfig::engine`]/[`RunConfig::threads`]
    /// calls override them regardless of call order.
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

    /// Select the execution engine explicitly, overriding the plan.
    pub fn engine(mut self, kind: EnginePref) -> Self {
        self.engine = Some(kind);
        self
    }

    /// Kernel-engine worker threads (≥ 1), overriding the plan. Ignored
    /// by the tree engine.
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
    /// `telemetry-rank-<r>.jsonl` files `acfc top DIR` tails. The
    /// config's `engine` label is overwritten with the engine this run
    /// resolves to.
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

    /// The engine this config resolves to (explicit > plan > tree).
    pub fn resolved_engine(&self) -> EnginePref {
        self.engine
            .or(self.plan.map(|p| p.engine))
            .unwrap_or_default()
    }

    /// The thread count this config resolves to (explicit > plan > 1).
    pub fn resolved_threads(&self) -> u32 {
        self.threads
            .or(self.plan.map(|p| p.threads))
            .unwrap_or(1)
            .max(1)
    }

    /// Build the resolved engine for this config's file. Kernel
    /// compilation honors the plan's `kernel_nests` hints when present
    /// (the transformed program's proven-eligible nests); without a plan
    /// the whole program is walked for eligibility.
    pub fn build_engine(&self) -> Box<dyn Engine> {
        match self.resolved_engine() {
            EnginePref::Tree => Box::new(TreeEngine),
            EnginePref::Kernel => {
                let hints = self
                    .plan
                    .map(|p| p.kernel_nests.as_slice())
                    .filter(|h| !h.is_empty());
                Box::new(KernelEngine::compile(
                    self.file,
                    hints,
                    self.resolved_threads(),
                ))
            }
        }
    }

    /// Run the program sequentially (no hooks, no plan required) on the
    /// resolved engine.
    pub fn run_sequential(&self) -> Result<(Machine, Frame), RunError> {
        let engine = self.build_engine();
        let mut hooks = NoHooks;
        run_program_capture_with(
            self.file,
            self.input.clone(),
            &mut hooks,
            self.stmt_limit,
            engine.kernels(),
        )
    }

    fn plan_or_err(&self) -> Result<&'a SpmdPlan, RunError> {
        self.plan.ok_or_else(|| {
            RunError::new("RunConfig: parallel execution needs a plan (use .plan())")
        })
    }

    /// Attach this config's telemetry sink (if any) to `comm`, stamping
    /// the frames with the engine the run resolved to.
    fn attach_telemetry(&self, comm: &Comm, kernels: bool) {
        if let Some(config) = &self.telemetry {
            let mut config = config.clone();
            config.engine = if kernels { "kernel" } else { "tree" }.to_string();
            comm.enable_telemetry(config);
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
            engine: "tree".to_string(),
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
        let engine = self.build_engine();
        self.attach_telemetry(comm, engine.kernels().is_some());
        run_rank_traced_impl(
            self.file,
            plan,
            self.input.clone(),
            self.stmt_limit,
            comm,
            self.overlap,
            self.ckpt.clone(),
            snaps.as_ref().map(|s| &s[comm.rank()]),
            engine.kernels(),
        )
    }

    /// Run the plan's full mesh on `plan.ranks()` in-process rank
    /// threads. The engine is built once and shared by every rank (one
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
                engine: "tree".to_string(),
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
        let engine = self.build_engine();
        let kernels = engine.kernels();
        let n = plan.ranks() as usize;
        run_spmd(n, |comm| {
            self.attach_telemetry(&comm, kernels.is_some());
            run_rank_traced_impl(
                self.file,
                plan,
                self.input.clone(),
                self.stmt_limit,
                &comm,
                self.overlap,
                self.ckpt.clone(),
                snaps.as_ref().map(|s| &s[comm.rank()]),
                kernels,
            )
        })
    }
}

/// Statement ids of the outermost comm-free loop nests in `file` the
/// kernel compiler accepts — what a driver stores into a plan's
/// `kernel_nests` so remote executions compile the same set. Re-exported
/// from [`crate::kernel::eligible_nests`].
pub fn kernel_nests(file: &SourceFile) -> Vec<StmtId> {
    eligible_nests(file)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (mt, ft) = RunConfig::new(&file).run_sequential().unwrap();
        let (mk, fk) = RunConfig::new(&file)
            .engine(EnginePref::Kernel)
            .threads(4)
            .run_sequential()
            .unwrap();
        assert_eq!(mt.ops, mk.ops);
        assert_eq!(mt.output, mk.output);
        assert_eq!(ft.scalars.len(), fk.scalars.len());
    }

    #[test]
    fn resolution_order_is_explicit_over_plan_over_default() {
        let file = parse(STENCIL);
        let cfg = RunConfig::new(&file);
        assert_eq!(cfg.resolved_engine(), EnginePref::Tree);
        assert_eq!(cfg.resolved_threads(), 1);
        let cfg = cfg.engine(EnginePref::Kernel).threads(3);
        assert_eq!(cfg.resolved_engine(), EnginePref::Kernel);
        assert_eq!(cfg.resolved_threads(), 3);
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
        let eng = KernelEngine::compile(&file, Some(&all[..1]), 2);
        assert_eq!(eng.set().len(), 1, "hints restrict compilation");
        assert_eq!(eng.kind(), EnginePref::Kernel);
        assert!(eng.kernels().is_some());
    }
}
