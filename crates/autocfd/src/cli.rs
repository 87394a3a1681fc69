//! The launcher: one description of a launch, and the one sequence that
//! follows the ranks' return.
//!
//! `acfc` starts the same SPMD program on N processors — rank-threads in
//! its own process, or one `acfd-worker` process per rank — whether the
//! launch is a fresh `run`/`trace`, a `resume`, an `--elastic` recovery
//! or an `advise --apply`. [`CommonOpts`] is the description all of them
//! share, and it has three sources that must agree:
//!
//! * **flags** — each binary's argument loop offers every word to
//!   [`CommonOpts::accept`] first and handles only its own mode flags;
//! * **a manifest overlay** — [`CommonOpts::overlay`] lays the
//!   `run.json` of a checkpointed run over the relaunching command's
//!   flags, so a resumed launch is a fresh launch with an epoch;
//! * **the worker argv** — [`CommonOpts::worker_args`] is the
//!   launcher→worker protocol, the exact inverse of `accept`.
//!
//! From a description, `run_config` assembles the one [`RunConfig`]
//! (overlap, checkpoint + chaos, telemetry + spool directory, resume
//! directory + epoch), and [`CommonOpts::run_mesh`] /
//! [`CommonOpts::run_rank`] execute it and run the post-run sequence over the ranks this process holds — all of
//! them in-process, one in a worker: journals first (also on failure:
//! a failed rank's partial trace is what gets rendered for debugging),
//! then the profile, rank 0's output, the first error, and the
//! owned-region verification of every held rank. [`retarget`] is the
//! state machine every relaunch of a checkpoint directory goes through.

use crate::{compile, obs, planio, CompileOptions, Compiled, Error};
use autocfd_grid::PartitionSpec;
use autocfd_interp::{verify_rank_owned_region, CheckpointOpts, RankRun, RunConfig, RunError};
use autocfd_runtime::checkpoint::{self, RunManifest};
use autocfd_runtime::{
    fold_traces, render_timeline, render_wire_table, Comm, TelemetryConfig, Transport,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which transport backs a parallel execution.
#[derive(Debug, PartialEq, Eq, Clone, Copy, Default)]
pub enum TransportKind {
    /// Rank-threads in one process over in-memory channels (default).
    #[default]
    Inproc,
    /// One OS process per rank over localhost TCP sockets.
    Tcp,
}

/// The launch description every `acfc` subcommand and the worker share.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommonOpts {
    /// Compilation options accumulated from `--procs`, `--partition`,
    /// `--distance`, `--no-optimize`, `--threads`.
    pub compile: CompileOptions,
    /// `--transport inproc|tcp`.
    pub transport: TransportKind,
    /// `--ranks N` — processor count; with `--transport tcp`, the
    /// worker-process count.
    pub ranks: Option<u32>,
    /// `--timeout-ms N` — per-receive timeout (deadlock detection).
    pub timeout_ms: Option<u64>,
    /// `--trace-dir DIR` — where `trace` writes the journal, and where
    /// telemetry spools land when no journal is written.
    pub trace_dir: Option<String>,
    /// `--profile` — print wire statistics after the run.
    pub profile: bool,
    /// `--overlap` — hide eligible halo exchanges behind interior
    /// computation (nonblocking sync points).
    pub overlap: bool,
    /// `--checkpoint-every N` — snapshot every N-th checkpoint-safe
    /// sync visit (requires `--checkpoint-dir`).
    pub checkpoint_every: Option<u64>,
    /// `--checkpoint-dir DIR` — where per-epoch snapshots are written
    /// (implies a cadence of 1 when `--checkpoint-every` is absent).
    pub checkpoint_dir: Option<String>,
    /// `--plan FILE` — execute against a previously emitted plan JSON
    /// (`acfc plan`) instead of the plan this compile produced.
    pub plan: Option<String>,
    /// `--chaos-abort-after N` — fault injection for the chaos tests:
    /// abort the rank at its N-th checkpoint-safe sync visit. The
    /// launcher hands this to a single worker, never the whole mesh.
    pub chaos_abort_after: Option<u64>,
    /// `--telemetry-ms N` — publish live per-rank stat frames every N
    /// milliseconds (spooled next to the journals) for `acfc top`; bare
    /// `--telemetry` means
    /// [`autocfd_runtime::telemetry::DEFAULT_TELEMETRY_INTERVAL`].
    pub telemetry_ms: Option<u64>,
    /// `--verify` / `--verify-exact` — compare every held rank's owned
    /// region against a sequential run within this tolerance (1e-12 /
    /// exactly 0).
    pub verify: Option<f64>,
    /// `--journal DIR` (launcher→worker) — write each held rank's JSONL
    /// journal into DIR, also when the run fails.
    pub journal: Option<String>,
    /// `--resume-epoch E` (launcher→worker) — restore rank state from
    /// `--checkpoint-dir`'s epoch E instead of starting fresh. The
    /// launcher pins the epoch: the resumed run writes new epochs into
    /// the same directory, so "latest" drifts.
    pub resume_epoch: Option<u64>,
    /// `--connect HOST:PORT` (launcher→worker) — the rendezvous socket
    /// that assigns this process its rank.
    pub connect: Option<SocketAddr>,
}

fn runtime_err(msg: String) -> Error {
    Error::Runtime(RunError::new(msg))
}

impl CommonOpts {
    /// Fresh options with optimization on (the `acfc` default).
    pub fn new() -> Self {
        Self {
            compile: CompileOptions {
                optimize: true,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Try to consume `arg` (pulling any value from `rest`). Returns
    /// `Ok(true)` when the flag was one of the shared set, `Ok(false)`
    /// when the caller must handle it, and `Err` on a malformed value.
    pub fn accept(
        &mut self,
        arg: &str,
        rest: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        fn num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {what} `{v}`"))
        }
        let mut value = |needs: &str| rest.next().ok_or(format!("{arg} needs {needs}"));
        match arg {
            "--transport" => {
                self.transport = match value("`inproc` or `tcp`")?.as_str() {
                    "inproc" => TransportKind::Inproc,
                    "tcp" => TransportKind::Tcp,
                    other => return Err(format!("unknown transport `{other}`")),
                };
            }
            "--ranks" => self.ranks = Some(num(&value("a value")?, "rank count")?),
            "--procs" => self.compile.procs = Some(num(&value("a value")?, "proc count")?),
            "--partition" => {
                let v = value("a value like 4x1x1")?;
                let parts: Result<Vec<u32>, _> = v.split('x').map(str::parse).collect();
                self.compile.partition = Some(parts.map_err(|_| format!("bad partition `{v}`"))?);
            }
            "--distance" => self.compile.distance = Some(num(&value("a value")?, "distance")?),
            "--threads" => {
                let v = value("a value")?;
                self.compile.threads = num(&v, "thread count")
                    .ok()
                    .filter(|&n: &u32| n >= 1)
                    .ok_or_else(|| format!("bad thread count `{v}`"))?;
            }
            "--timeout-ms" => self.timeout_ms = Some(num(&value("a value")?, "timeout")?),
            "--trace-dir" => self.trace_dir = Some(value("a path")?),
            "--checkpoint-every" => {
                self.checkpoint_every = Some(num(&value("a value")?, "checkpoint cadence")?)
            }
            "--checkpoint-dir" => self.checkpoint_dir = Some(value("a path")?),
            "--plan" => self.plan = Some(value("a path")?),
            "--chaos-abort-after" => {
                self.chaos_abort_after = Some(num(&value("a value")?, "chaos visit count")?)
            }
            "--telemetry" => {
                let default = autocfd_runtime::telemetry::DEFAULT_TELEMETRY_INTERVAL;
                self.telemetry_ms.get_or_insert(default.as_millis() as u64);
            }
            "--telemetry-ms" => {
                self.telemetry_ms = Some(num(&value("a value")?, "telemetry interval")?)
            }
            "--verify" => {
                self.verify.get_or_insert(1e-12);
            }
            "--verify-exact" => self.verify = Some(0.0),
            "--journal" => self.journal = Some(value("DIR")?),
            "--resume-epoch" => self.resume_epoch = Some(num(&value("a value")?, "epoch")?),
            "--connect" => self.connect = Some(num(&value("HOST:PORT")?, "address")?),
            "--no-optimize" => self.compile.optimize = false,
            "--profile" => self.profile = true,
            "--overlap" => self.overlap = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolve flag interactions once parsing is done: `--ranks` doubles
    /// as the processor count when no explicit partition fixed the grid,
    /// and a cadence or a resume epoch is meaningless without the
    /// checkpoint directory it refers to.
    pub fn finish(&mut self) -> Result<(), String> {
        if let (Some(n), None) = (self.ranks, &self.compile.partition) {
            self.compile.procs = Some(n);
        }
        for (flag, given) in [
            ("--checkpoint-every", self.checkpoint_every.is_some()),
            ("--resume-epoch", self.resume_epoch.is_some()),
        ] {
            if given && self.checkpoint_dir.is_none() {
                return Err(format!("{flag} needs --checkpoint-dir DIR"));
            }
        }
        Ok(())
    }

    /// The checkpoint cadence and directory, when checkpointing was
    /// requested: `--checkpoint-dir` alone implies a cadence of 1.
    pub fn checkpointing(&self) -> Option<(u64, &str)> {
        let dir = self.checkpoint_dir.as_deref()?;
        Some((self.checkpoint_every.unwrap_or(1), dir))
    }

    fn timeout(&self) -> Duration {
        self.timeout_ms
            .map_or(Duration::from_secs(30), Duration::from_millis)
    }

    /// The argument list (after the source path) that makes an
    /// `acfd-worker` parse this very description back. The launcher
    /// resolves what only it can know before encoding: the partition
    /// (so every process holds the identical plan, however the shape
    /// was chosen — `--procs`/`--ranks` are therefore never sent), the
    /// rendezvous address, and which single worker carries a
    /// `--chaos-abort-after`. `--transport` is not sent either: a
    /// worker is by definition one rank of a TCP mesh.
    pub fn worker_args(&self) -> Vec<String> {
        let c = &self.compile;
        let mut out = Vec::new();
        let mut value = |flag: &str, v: Option<String>| {
            if let Some(v) = v {
                out.extend([flag.to_string(), v]);
            }
        };
        let parts = c.partition.as_deref().map(PartitionSpec::new);
        value("--partition", parts.map(|p| p.display()));
        value("--distance", c.distance.map(|d| d.to_string()));
        // 1 thread is the parser's default
        value("--threads", (c.threads != 1).then(|| c.threads.to_string()));
        value("--timeout-ms", self.timeout_ms.map(|v| v.to_string()));
        value("--trace-dir", self.trace_dir.clone());
        value(
            "--checkpoint-every",
            self.checkpoint_every.map(|v| v.to_string()),
        );
        value("--checkpoint-dir", self.checkpoint_dir.clone());
        value("--plan", self.plan.clone());
        value(
            "--chaos-abort-after",
            self.chaos_abort_after.map(|v| v.to_string()),
        );
        // always the resolved interval, so every worker publishes on the
        // launcher's cadence regardless of its own binary's default
        value("--telemetry-ms", self.telemetry_ms.map(|v| v.to_string()));
        value("--journal", self.journal.clone());
        value("--resume-epoch", self.resume_epoch.map(|v| v.to_string()));
        value("--connect", self.connect.map(|a| a.to_string()));
        for (flag, on) in [
            ("--no-optimize", !c.optimize),
            ("--profile", self.profile),
            ("--overlap", self.overlap),
            ("--verify-exact", self.verify == Some(0.0)),
            ("--verify", self.verify.is_some_and(|tol| tol != 0.0)),
        ] {
            if on {
                out.push(flag.to_string());
            }
        }
        out
    }

    /// The launch description of a relaunch of the checkpointed run in
    /// `dir` from `epoch`: what is compiled and how it executes comes
    /// from the manifest (geometry, distance, optimization, threads,
    /// overlap, timeout, cadence), how the launch is carried
    /// out and observed comes from `self`, the relaunching command's
    /// flags (transport, verification, profile, telemetry, trace
    /// directory).
    pub fn overlay(&self, dir: &Path, manifest: &RunManifest, epoch: u64) -> CommonOpts {
        CommonOpts {
            compile: manifest_compile(manifest),
            ranks: None,
            timeout_ms: Some(manifest.timeout_ms),
            overlap: manifest.overlap,
            checkpoint_every: Some(manifest.checkpoint_every),
            checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
            resume_epoch: Some(epoch),
            // a relaunch compiles for its own geometry, and never
            // re-injects the fault it is recovering from
            plan: None,
            chaos_abort_after: None,
            ..self.clone()
        }
    }

    /// With checkpointing on, record how to relaunch this fresh launch:
    /// the manifest (and the source it embeds) `acfc resume DIR` needs
    /// to reconstruct the identical compile. [`CommonOpts::overlay`]
    /// reads back what this writes.
    pub fn write_manifest(&self, compiled: &Compiled, source: String) -> Result<(), Error> {
        let Some((every, dir)) = self.checkpointing() else {
            return Ok(());
        };
        let manifest = RunManifest {
            source,
            parts: compiled.partition.spec.parts.clone(),
            grid: compiled.partition.shape.extents.clone(),
            ranks: compiled.spmd_plan.ranks() as usize,
            // the limit the compile actually used: option > directive > default
            distance: self
                .compile
                .distance
                .or(compiled.ir.directives.distance.map(u64::from))
                .unwrap_or(1) as i64,
            optimize: self.compile.optimize,
            overlap: self.overlap,
            checkpoint_every: every,
            timeout_ms: self.timeout().as_millis() as u64,
            threads: self.compile.threads.into(),
        };
        checkpoint::write_manifest(Path::new(dir), &manifest)
            .map(drop)
            .map_err(|e| runtime_err(format!("cannot write relaunch manifest: {e}")))
    }

    /// Compile `source` as this description says, and swap in the
    /// `--plan` artifact when one was given.
    pub fn build(&self, source: &str) -> Result<Compiled, Error> {
        let mut compiled = compile(source, &self.compile)?;
        if let Some(path) = &self.plan {
            planio::substitute_plan_file(&mut compiled, path)?;
        }
        Ok(compiled)
    }

    /// The one `RunConfig` assembly, for a whole in-process mesh and for
    /// a single worker rank alike. The plan carries the thread count and
    /// kernel nests (local compile or `--plan` artifact), so every
    /// process of a mesh compiles the same kernels.
    fn run_config<'a>(&self, compiled: &'a Compiled) -> RunConfig<'a> {
        let mut cfg = compiled.run_config().overlap(self.overlap);
        let ckpt = self.checkpointing();
        // chaos injection works without a snapshot directory: visits
        // are counted either way
        if ckpt.is_some() || self.chaos_abort_after.is_some() {
            let (every, dir) = ckpt.unwrap_or((0, ""));
            cfg = cfg.checkpoint(CheckpointOpts {
                every,
                dir: PathBuf::from(dir),
                chaos_abort_after: self.chaos_abort_after,
            });
        }
        // frames spool next to the journal, else into --trace-dir, so
        // `acfc top DIR` can watch the run while it executes
        if let Some(ms) = self.telemetry_ms {
            cfg = cfg.telemetry(TelemetryConfig {
                interval: Duration::from_millis(ms),
                spool_dir: self
                    .journal
                    .as_ref()
                    .or(self.trace_dir.as_ref())
                    .map(PathBuf::from),
                ..Default::default()
            });
        }
        // When the epoch's rank count differs from the plan's, the
        // config elastically repartitions the cut onto this mesh.
        if let (Some(epoch), Some(dir)) = (self.resume_epoch, &self.checkpoint_dir) {
            cfg = cfg.resume_from(dir).resume_epoch(epoch);
        }
        cfg
    }

    /// Run the whole mesh on rank-threads in this process, then the
    /// post-run sequence over all of its ranks.
    pub fn run_mesh(&self, compiled: &Compiled) -> Result<(), Error> {
        let runs = self.run_config(compiled).run_parallel_traced();
        self.finish_ranks(compiled, None, runs)
    }

    /// Run the one rank `transport` was assigned (resume is resolved
    /// only now — workers are interchangeable until the mesh join),
    /// then the post-run sequence over it.
    pub fn run_rank(
        &self,
        compiled: &Compiled,
        transport: Box<dyn Transport>,
    ) -> Result<(), Error> {
        let rank = transport.rank();
        let comm = Comm::new(transport, self.timeout(), Instant::now());
        let run = self.run_config(compiled).run_rank_traced(&comm);
        drop(comm); // closes this rank's mesh endpoint

        // a chaos-injected failure simulates a hard crash: abort without
        // flushing the journal, exactly like a killed process would
        if let Err(e) = &run.outcome {
            if e.to_string().contains("chaos-abort") {
                eprintln!("acfd-worker[rank {rank}]: {e}");
                std::process::abort();
            }
        }
        self.finish_ranks(compiled, Some(rank), vec![run])
    }

    /// The post-run sequence over the ranks this process holds: the
    /// whole mesh in rank order (`worker_rank` is `None`), or the one
    /// rank a worker was assigned.
    fn finish_ranks(
        &self,
        compiled: &Compiled,
        worker_rank: Option<usize>,
        runs: Vec<RankRun>,
    ) -> Result<(), Error> {
        let plan = &compiled.spmd_plan;
        let (who, transport, first) = match worker_rank {
            Some(r) => (format!("acfd-worker[rank {r}]"), "tcp", r),
            None => ("acfc".to_string(), "inproc", 0),
        };
        if let Some(dir) = &self.journal {
            for (rank, run) in (first..).zip(&runs) {
                obs::write_rank_run(Path::new(dir), transport, rank, plan.ranks() as usize, run)
                    .map_err(|e| {
                        Error::Usage(format!("cannot write journal for rank {rank}: {e}"))
                    })?;
            }
        }
        if self.profile {
            let traces: Vec<_> = runs.iter().map(|r| r.trace.clone()).collect();
            let phases: Vec<_> = runs.iter().map(|r| r.phases.clone()).collect();
            let table = fold_traces(&traces, &phases);
            if worker_rank.is_some() {
                // one rank sees no timeline worth drawing: its wire
                // counters and per-phase traffic, one line each
                let ws = &runs[0].wire_stats;
                eprintln!(
                    "{who}: wire {} msg / {} B sent, {} msg / {} B recvd",
                    ws.msgs_sent, ws.bytes_sent, ws.msgs_recvd, ws.bytes_recvd
                );
                for (row, t) in table.rows.iter().map(|r| (r, r.total())) {
                    if t.is_comm() {
                        eprintln!("{who}:   {}: {} msg / {} B", row.phase, t.msgs, t.bytes);
                    }
                }
            } else {
                eprint!("{}", render_timeline(&traces, 72));
                eprint!("{}", render_wire_table(&table));
                for (r, trace) in traces.iter().enumerate() {
                    let total = table.rank_total(r);
                    let elems: usize = trace.iter().map(|e| e.elems).sum();
                    eprintln!(
                        "rank {r}: {} comm events, {:?} blocked, {elems} f64s moved",
                        total.events,
                        total.comm + total.wait
                    );
                }
            }
        }
        if let (0, Ok((machine, _))) = (first, &runs[0].outcome) {
            for line in &machine.output {
                println!("{line}");
            }
        }
        let mut results = Vec::with_capacity(runs.len());
        let mut failed = None;
        for (rank, run) in (first..).zip(runs) {
            match run.into_result() {
                Ok(r) => results.push(r),
                Err(e) => {
                    // a worker's `who` already names its rank, and its
                    // caller prints the error returned below
                    if worker_rank.is_none() {
                        eprintln!("{who}: rank {rank}: {e}");
                    }
                    failed.get_or_insert(e);
                }
            }
        }
        if let Some(e) = failed {
            return Err(Error::Runtime(e));
        }
        if let Some(tol) = self.verify {
            let seq = compiled.run_sequential(vec![]).map_err(|e| RunError {
                message: format!("sequential reference run: {}", e.message),
                ..e
            })?;
            let mut max_diff = 0.0f64;
            for (rank, rr) in (first..).zip(&results) {
                let d = verify_rank_owned_region(&seq, rr, rank, plan, tol)
                    .map_err(Error::Validation)?;
                max_diff = max_diff.max(d);
            }
            eprintln!("{who}: verified — max |seq - par| = {max_diff:e}");
        }
        Ok(())
    }
}

/// The compile a manifest records.
fn manifest_compile(manifest: &RunManifest) -> CompileOptions {
    CompileOptions {
        procs: None,
        partition: Some(manifest.parts.clone()),
        distance: Some(manifest.distance as u64),
        optimize: manifest.optimize,
        threads: manifest.threads.clamp(1, u64::from(u32::MAX)) as u32,
        ..Default::default()
    }
}

/// The state machine every relaunch of a checkpoint directory goes
/// through — `resume`, `run --elastic` recovery, `advise --apply`: pick
/// the newest consistent epoch, compile `manifest`'s source for the
/// target `parts` (statement ids are minted deterministically, so the
/// saved cursors stay valid), and only then commit the target to `dir`
/// — `run.json`, and the embedded source as `source.f`, which workers
/// and post-resume tooling read because the original `.f` may have
/// changed or vanished. A failure on the way leaves the directory as
/// it was. The caller loaded `manifest` (it needs the recorded geometry
/// to choose `parts`) and may have edited its execution knobs; what
/// comes back is what was written, the pinned epoch, and the target
/// compile. Workers launched afterwards — and any later resume — read
/// this manifest; epochs recorded under the old geometry stay loadable
/// via their pinned number (ranks detect an elastic move by comparing
/// the plan to the epoch's snapshots), but no longer count as "latest".
pub fn retarget(
    dir: &Path,
    mut manifest: RunManifest,
    parts: Vec<u32>,
) -> Result<(RunManifest, u64, Compiled), Error> {
    manifest.parts = parts;
    let opts = manifest_compile(&manifest);
    let epoch = checkpoint::latest_consistent_epoch(dir).ok_or_else(|| {
        runtime_err(format!(
            "no consistent checkpoint epoch under `{}` (need all rank snapshots \
             of one epoch to parse and agree)",
            dir.display()
        ))
    })?;
    let compiled = compile(&manifest.source, &opts)?;
    manifest.ranks = compiled.spmd_plan.ranks() as usize;
    manifest.grid = compiled.partition.shape.extents.clone();
    checkpoint::write_manifest(dir, &manifest)
        .and_then(|_| std::fs::write(dir.join("source.f"), &manifest.source))
        .map_err(|e| Error::Usage(format!("cannot rewrite relaunch manifest: {e}")))?;
    Ok((manifest, epoch, compiled))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<(CommonOpts, Vec<String>), String> {
        let mut opts = CommonOpts::new();
        let mut own = Vec::new();
        let mut it = words.iter().map(|s| s.to_string());
        while let Some(a) = it.next() {
            if !opts.accept(&a, &mut it)? {
                own.push(a);
            }
        }
        opts.finish()?;
        Ok((opts, own))
    }

    #[test]
    fn shared_flags_are_consumed_and_own_flags_passed_through() {
        let (opts, own) = parse(&[
            "in.f",
            "--transport",
            "tcp",
            "--ranks",
            "4",
            "--trace-dir",
            "out.trace",
            "--profile",
            "--overlap",
            "--check",
        ])
        .unwrap();
        assert_eq!(opts.transport, TransportKind::Tcp);
        assert_eq!(opts.ranks, Some(4));
        assert_eq!(opts.compile.procs, Some(4), "--ranks doubles as --procs");
        assert_eq!(opts.trace_dir.as_deref(), Some("out.trace"));
        assert!(opts.profile && opts.overlap);
        assert_eq!(own, vec!["in.f", "--check"]);
    }

    #[test]
    fn explicit_partition_wins_over_ranks() {
        let (opts, _) = parse(&["--partition", "2x2", "--ranks", "4"]).unwrap();
        assert_eq!(opts.compile.partition, Some(vec![2, 2]));
        assert_eq!(opts.compile.procs, None);
    }

    #[test]
    fn bad_values_are_reported() {
        assert!(parse(&["--transport", "carrier-pigeon"]).is_err());
        assert!(parse(&["--ranks", "many"]).is_err());
        assert!(parse(&["--partition", "2xtwo"]).is_err());
        assert!(parse(&["--timeout-ms"]).is_err());
        assert!(parse(&["--telemetry-ms", "soon"]).is_err());
        assert!(parse(&["--connect", "nowhere"]).is_err());
        // a cadence or an epoch without the directory it refers to
        assert!(parse(&["--checkpoint-every", "4"]).is_err());
        assert!(parse(&["--resume-epoch", "4"]).is_err());
    }

    #[test]
    fn threads_flag_parses_and_defaults() {
        let (opts, _) = parse(&[]).unwrap();
        assert_eq!(opts.compile.threads, 1);
        let (opts, _) = parse(&["--threads", "8"]).unwrap();
        assert_eq!(opts.compile.threads, 8);
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "many"]).is_err());
    }

    #[test]
    fn checkpoint_flags_resolve_and_forward() {
        let (opts, _) = parse(&[]).unwrap();
        assert_eq!(opts, CommonOpts::new(), "no flag, no effect");
        assert_eq!(opts.checkpointing(), None);
        let (opts, _) = parse(&["--checkpoint-dir", "ck"]).unwrap();
        assert_eq!(
            opts.checkpointing(),
            Some((1, "ck")),
            "a dir alone: every visit"
        );
        let (opts, _) = parse(&["--checkpoint-every", "4", "--checkpoint-dir", "ck"]).unwrap();
        assert_eq!(opts.checkpointing(), Some((4, "ck")));
        for words in [
            ["--verify", "--verify-exact"],
            ["--verify-exact", "--verify"],
        ] {
            assert_eq!(parse(&words).unwrap().0.verify, Some(0.0), "exact wins");
        }
    }

    #[test]
    fn telemetry_flags_resolve_and_forward() {
        let default = autocfd_runtime::telemetry::DEFAULT_TELEMETRY_INTERVAL.as_millis() as u64;
        let (opts, _) = parse(&["--telemetry"]).unwrap();
        assert_eq!(opts.telemetry_ms, Some(default));
        // workers receive the resolved interval, never the bare flag
        assert_eq!(opts.worker_args(), ["--telemetry-ms", &default.to_string()]);
        // an explicit interval beats the bare flag in either order
        for words in [
            ["--telemetry", "--telemetry-ms", "25"],
            ["--telemetry-ms", "25", "--telemetry"],
        ] {
            assert_eq!(parse(&words).unwrap().0.telemetry_ms, Some(25));
        }
    }

    /// encoder ∘ parser = identity on every field a rank can see. The
    /// launcher-side fields are resolved before encoding and come back
    /// at their defaults: `--transport` (a worker is a TCP rank),
    /// `--ranks`/`--procs` (the resolved `--partition` travels instead).
    #[test]
    fn worker_args_round_trip_the_shared_subset() {
        let (sent, own) = parse(&[
            "--partition",
            "3x2",
            "--distance",
            "2",
            "--no-optimize",
            "--threads",
            "4",
            "--timeout-ms",
            "500",
            "--trace-dir",
            "t",
            "--profile",
            "--overlap",
            "--checkpoint-every",
            "4",
            "--checkpoint-dir",
            "ck",
            "--plan",
            "p.json",
            "--chaos-abort-after",
            "3",
            "--telemetry",
            "--verify-exact",
            "--journal",
            "j",
            "--resume-epoch",
            "6",
            "--connect",
            "127.0.0.1:4000",
        ])
        .unwrap();
        assert!(own.is_empty());
        let CommonOpts {
            compile:
                CompileOptions {
                    procs: None,
                    partition: Some(_),
                    distance: Some(_),
                    optimize: false,
                    engine: _,
                    threads: 4,
                },
            transport: TransportKind::Inproc,
            ranks: None,
            timeout_ms: Some(_),
            trace_dir: Some(_),
            profile: true,
            overlap: true,
            checkpoint_every: Some(_),
            checkpoint_dir: Some(_),
            plan: Some(_),
            chaos_abort_after: Some(_),
            telemetry_ms: Some(_),
            verify: Some(_),
            journal: Some(_),
            resume_epoch: Some(_),
            connect: Some(_),
        } = &sent
        else {
            panic!("a field of the description is not exercised: {sent:?}");
        };
        let round_trip = |opts: &CommonOpts| {
            let words = opts.worker_args();
            let refs: Vec<&str> = words.iter().map(String::as_str).collect();
            let (back, own) = parse(&refs).unwrap();
            assert!(own.is_empty(), "{own:?}");
            back
        };
        assert_eq!(round_trip(&sent), sent);

        // the other value of every flag-shaped field, and `--verify`
        let (plain, _) = parse(&["--verify"]).unwrap();
        let words = plain.worker_args();
        assert_eq!(words, ["--verify"], "defaults are not sent");
        assert_eq!(round_trip(&plain), plain);

        let (launcher_side, _) = parse(&["--transport", "tcp", "--ranks", "4"]).unwrap();
        assert_eq!(round_trip(&launcher_side), CommonOpts::new());
    }

    #[test]
    fn overlay_takes_execution_from_the_manifest_and_observation_from_the_flags() {
        let manifest = RunManifest {
            source: String::new(),
            parts: vec![3, 1],
            grid: vec![30, 30],
            ranks: 3,
            distance: 2,
            optimize: false,
            overlap: true,
            checkpoint_every: 4,
            timeout_ms: 700,
            threads: 2,
        };
        let (cli, _) = parse(&[
            "--partition",
            "2x2",
            "--ranks",
            "4",
            "--transport",
            "tcp",
            "--verify",
            "--profile",
            "--telemetry-ms",
            "5",
            "--trace-dir",
            "t",
            "--plan",
            "stale.json",
            "--chaos-abort-after",
            "7",
        ])
        .unwrap();
        let d = cli.overlay(Path::new("ck"), &manifest, 6);
        assert_eq!(
            d.compile.partition,
            Some(vec![3, 1]),
            "the manifest's geometry"
        );
        assert_eq!(d.compile.distance, Some(2));
        assert!(!d.compile.optimize && d.overlap);
        assert_eq!((d.compile.threads, d.timeout_ms), (2, Some(700)));
        assert_eq!(d.checkpointing(), Some((4, "ck")));
        assert_eq!((d.resume_epoch, d.ranks), (Some(6), None));
        assert_eq!((d.plan, d.chaos_abort_after), (None, None));
        assert_eq!(d.transport, TransportKind::Tcp);
        assert_eq!((d.verify, d.profile), (Some(1e-12), true));
        assert_eq!(
            (d.telemetry_ms, d.trace_dir.as_deref()),
            (Some(5), Some("t"))
        );
    }
}
