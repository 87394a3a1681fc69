//! `acfc` — the Auto-CFD pre-compiler command line.
//!
//! ```text
//! acfc [run|trace] INPUT.f [options]
//! acfc compile INPUT.f --server ADDR --partition AxB [-o plan.json] [--emit FILE]
//! acfc plan INPUT.f [-o plan.json] [compile options]
//! acfc resume DIR [--ranks M | --partition PxQ] [--transport inproc|tcp]
//!                 [--engine E] [--threads T] [--server ADDR] [--trace-dir DIR]
//!                 [--verify | --verify-exact] [--profile]
//! acfc stats DIR [--input INPUT.f] [options]
//! acfc advise DIR [--input INPUT.f] [-o advice.json] [compile options]
//! acfc advise --gate CURRENT.json [--baseline FILE] [--wall-tolerance T] [--comm-tolerance T]
//! acfc top DIR | --attach HOST:PORT [--once] [--interval MS] [--check]
//!
//!   --procs N            target processor count (partition chosen automatically)
//!   --partition AxB[xC]  explicit processor grid (e.g. 3x2x1)
//!   --no-optimize        skip the §5 synchronization optimizations
//!   --emit FILE          write the generated parallel Fortran ('-' = stdout)
//!   --report             print the synchronization-optimization report
//!   --run                execute the parallel program on rank-threads
//!   --verify             run sequential + parallel and compare owned regions
//!   --overlap            hide eligible halo exchanges behind interior
//!                        computation (nonblocking sync points)
//!   --transport T        inproc (rank-threads, default) or tcp (one OS
//!                        process per rank over localhost sockets)
//!   --ranks N            shorthand for --procs N; with --transport tcp
//!                        this is the worker-process count
//!   --timeout-ms N       per-receive timeout (deadlock detection)
//!   --trace-dir DIR      where `trace` writes the journal (default
//!                        <INPUT stem>.trace/)
//!   --tolerance T        max relative wire-byte error accepted by the
//!                        predicted-vs-measured table (default 0.05)
//!   --min-coverage C     min fraction of wall time the trace must cover
//!                        per rank under --check (default 0.9)
//!   --check              exit nonzero when the trace fails validation
//!                        (incomplete journal, no phases, low coverage,
//!                        model mismatch)
//!   --input FILE         (stats) source file to forecast against, for
//!                        the predicted-vs-measured table
//!   --plan FILE          execute against a previously emitted plan JSON
//!                        instead of the plan this compile produced
//!   --checkpoint-every N snapshot every N-th checkpoint-safe sync visit
//!                        (tcp transport; requires --checkpoint-dir)
//!   --checkpoint-dir DIR where per-epoch snapshots and the relaunch
//!                        manifest are written
//!   --verify-exact       like --verify with a zero tolerance: the
//!                        parallel fields must be bit-identical
//!   --chaos-abort-after N fault injection: one worker hard-aborts at its
//!                        N-th checkpoint-safe sync visit (chaos testing)
//!   --elastic            (run, tcp + checkpointing) on a runtime failure,
//!                        shrink the mesh by one rank and auto-resume from
//!                        the newest consistent epoch, repeating until the
//!                        relaunch succeeds or one rank remains
//!   --apply              (advise) resume the checkpointed run named by
//!                        --checkpoint-dir onto the advisor's top-ranked
//!                        partition
//!   -o FILE              (plan) where to write the plan JSON ('-' or
//!                        absent = stdout)
//!   --server ADDR        submit the compile (and run) to a resident
//!                        `acfd-compile serve` daemon instead of running
//!                        the pipeline locally; requires an explicit
//!                        --partition AxB (the server never auto-picks)
//!   --gate CURRENT.json  (advise) compare a freshly measured perf
//!                        trajectory against the committed baseline and
//!                        exit 5 on any regression beyond tolerance
//!   --baseline FILE      (advise --gate) the baseline trajectory
//!                        (default BENCH_perf_trajectory.json)
//!   --wall-tolerance T   (advise --gate) allowed wall-time growth as a
//!                        fraction (default 0.5 — wall time is noisy)
//!   --comm-tolerance T   (advise --gate) allowed comm-volume growth
//!                        (default 0.02 — traffic is deterministic)
//!   --telemetry          publish live per-rank stat frames (spooled into
//!                        the trace directory and piggybacked on the TCP
//!                        heartbeat framing) for `acfc top`
//!   --telemetry-ms N     telemetry publish interval (implies --telemetry;
//!                        default 100 ms)
//!   --attach ADDR        (top) watch a resident `acfd-compile serve`
//!                        daemon — queue depth, cache hit rate, latencies
//!   --once               (top) render one frame and exit (CI-scriptable
//!                        with --check)
//!   --interval MS        (top) refresh cadence (default 500 ms)
//! ```
//!
//! `acfc top DIR` is the live monitor: it polls the telemetry spool
//! files a `--telemetry` run writes next to its journals and redraws a
//! per-rank table in place — current phase, busy time, work over the
//! mesh mean (its maximum is the imbalance `stats` and `advise` print),
//! exposed-communication percentage, checkpoint epoch and lag, dropped
//! frames, and liveness (age of the rank's last frame). It works against a live TCP run, an elastic run
//! mid-shrink (vanished ranks go idle, survivors keep updating), and —
//! via `--attach ADDR` — a resident compile service. `--once --check`
//! exits nonzero when telemetry is unhealthy (no frames, drop rate over
//! threshold, coverage gap), so CI can assert on a live run.
//!
//! `acfc advise DIR` mines a trace directory for performance problems:
//! per-phase load imbalance across ranks (with straggler attribution),
//! per-sync exposed-communication percentages (wait not hidden by
//! overlap), and — with `--input INPUT.f` — forecast-vs-measured
//! divergence plus a `cluster-sim` search over every candidate Table-1
//! partition, ranked by predicted wall time. The report goes to
//! stderr; a schema-versioned `advice.json` is written into DIR (or to
//! `-o`). Skew math runs on the marker-aligned merge, so ranks whose
//! journals have different wall-clock origins are compared correctly.
//!
//! With `--server ADDR`, `acfc run`/`acfc trace` submit the source to a
//! resident `acfd-compile` daemon: the server compiles (or serves the
//! plan from its content-addressed cache — the cache verdict is
//! reported), executes the parallel program on its own rank-threads, and
//! streams the per-rank JSONL journals back over the wire. `acfc trace
//! --server` therefore renders the same report, and `acfc stats DIR`
//! works unchanged on the streamed journals. `acfc compile --server`
//! stops after the compile: `-o` captures the plan JSON and `--emit` the
//! generated parallel source, exactly like their local counterparts.
//!
//! `acfc plan INPUT.f -o plan.json` runs the analysis pipeline and
//! emits the executable [`SpmdPlan`](autocfd::codegen::SpmdPlan) as
//! schema-versioned JSON; `acfc run --plan plan.json` (and each
//! `acfd-worker`) then executes against that artifact instead of the
//! plan its own compile produced. `acfc resume DIR` reloads the
//! relaunch manifest a checkpointed `acfc run` wrote into DIR, picks the
//! newest epoch for which every rank has a consistent snapshot
//! (discarding torn or incomplete epochs), and relaunches the mesh from
//! that cut; the resumed run continues bit-exactly. With `--ranks M` or
//! `--partition PxQ` the cut is *elastically repartitioned*: the N-rank
//! snapshots are stitched into global fields along their recorded owned
//! regions and re-scattered for the new geometry (see
//! [`autocfd::interp::repartition`]), so a checkpoint taken on N ranks
//! resumes — still bit-exactly — on M. `--transport inproc` resumes on
//! rank-threads in this process instead of spawning workers; `--server
//! ADDR` recompiles the plan for the new geometry on a resident
//! `acfd-compile` daemon and hands workers the cached artifact.
//!
//! `acfc trace INPUT.f` executes the parallel program with per-rank
//! JSONL journaling, writes a Perfetto-openable `trace.json`, and prints
//! the timeline, wire table, per-phase metrics, per-rank breakdown, and
//! the predicted-vs-measured cross-validation table; with `--overlap`
//! it also prints how much communication latency the overlap hid.
//! `acfc stats DIR` re-renders all of that from a previously written
//! trace directory.
//!
//! Examples:
//! `cargo run -p autocfd --bin acfc -- program.f --partition 4x1 --report --verify`
//! `cargo run -p autocfd --bin acfc -- trace program.f --ranks 4 --transport tcp --overlap`
//! `cargo run -p autocfd --bin acfc -- stats program.trace --input program.f --ranks 4 --check`
//!
//! With `--transport tcp` the launcher binds a rendezvous socket, spawns
//! one `acfd-worker` process per rank (found next to the `acfc`
//! executable), serves the rank-assignment handshake, and aggregates the
//! workers' exit statuses.
//!
//! Exit codes: 0 success, 1 usage or I/O error, 2 compile failure,
//! 3 runtime/communication failure, 4 validation failure, 5 perf
//! regression (see [`autocfd::Error::exit_code`]).

use autocfd::advisor;
use autocfd::cli::{CommonOpts, TransportKind};
use autocfd::compile_service::{
    Client, CompileReq, ErrorClass, Request, RunReq, ServiceError, StreamItem,
};
use autocfd::interp::{verify_owned_regions, CheckpointOpts};
use autocfd::obs;
use autocfd::runtime::checkpoint::{self, RunManifest};
use autocfd::runtime::journal;
use autocfd::runtime_net::Rendezvous;
use autocfd::{compile, Compiled, Error};
use serde::json::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    /// Compile (and optionally run/verify/profile) — the classic path.
    Compile,
    /// Run with journaling and render the full trace report.
    Trace,
    /// Re-render a previously written trace directory.
    Stats,
    /// Emit the SpmdPlan as schema-versioned JSON.
    Plan,
    /// Relaunch a checkpointed run from its newest consistent epoch.
    Resume,
    /// Compile on a resident `acfd-compile` daemon, nothing more.
    RemoteCompile,
    /// Mine a trace directory for performance advice, or gate a perf
    /// trajectory against the committed baseline.
    Advise,
    /// Live per-rank monitor over the telemetry spools (or a resident
    /// compile service), refreshing in place.
    Top,
}

struct Args {
    /// Input source file — or the trace/checkpoint directory in
    /// `stats`/`resume` mode.
    input: String,
    /// The flags shared by every subcommand and the worker.
    common: CommonOpts,
    emit: Option<String>,
    report: bool,
    analysis: bool,
    run: bool,
    verify: bool,
    /// `--verify-exact`: verify with a zero tolerance.
    verify_exact: bool,
    mode: Mode,
    tolerance: f64,
    min_coverage: f64,
    check: bool,
    /// `stats` only: source file for the predicted-vs-measured table.
    stats_input: Option<String>,
    /// `plan` only: output path for the plan JSON. `advise` reuses it
    /// for `advice.json`.
    plan_out: Option<String>,
    /// `--server ADDR`: compile (and run) on a resident daemon.
    server: Option<String>,
    /// `advise` only: gate this freshly measured trajectory file
    /// against the baseline instead of mining a trace directory.
    gate: Option<String>,
    /// `advise --gate` only: the baseline trajectory file.
    baseline: Option<String>,
    /// `advise --gate` only: allowed wall-time growth fraction.
    wall_tolerance: f64,
    /// `advise --gate` only: allowed comm-volume growth fraction.
    comm_tolerance: f64,
    /// `run` only: auto-shrink and resume on worker failure.
    elastic: bool,
    /// `advise` only: resume the checkpointed run onto the advised
    /// partition.
    apply: bool,
    /// `top --attach ADDR`: watch a resident compile service instead of
    /// a trace directory.
    attach: Option<String>,
    /// `top --once`: render a single frame and exit (CI-scriptable).
    once: bool,
    /// `top --interval MS`: refresh cadence.
    top_interval: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1).peekable();
    let mut input = None;
    let mut common = CommonOpts::new();
    let mut emit = None;
    let mut report = false;
    let mut analysis = false;
    let mut run = false;
    let mut verify = false;
    let mut verify_exact = false;
    let mut mode = Mode::Compile;
    let mut tolerance = 0.05;
    let mut min_coverage = 0.9;
    let mut check = false;
    let mut stats_input = None;
    let mut plan_out = None;
    let mut server = None;
    let mut gate = None;
    let mut baseline = None;
    let mut wall_tolerance = 0.5;
    let mut comm_tolerance = 0.02;
    let mut elastic = false;
    let mut apply = false;
    let mut attach = None;
    let mut once = false;
    let mut top_interval = None;
    // `acfc run INPUT.f ...` is sugar for `acfc INPUT.f --run ...`;
    // `trace` and `stats` select the observability modes, `plan` emits
    // the plan artifact, `resume` relaunches a checkpointed run,
    // `compile` submits a compile-only request to `--server`
    match args.peek().map(String::as_str) {
        Some("run") => {
            args.next();
            run = true;
        }
        Some("trace") => {
            args.next();
            mode = Mode::Trace;
        }
        Some("stats") => {
            args.next();
            mode = Mode::Stats;
        }
        Some("plan") => {
            args.next();
            mode = Mode::Plan;
        }
        Some("resume") => {
            args.next();
            mode = Mode::Resume;
        }
        Some("compile") => {
            args.next();
            mode = Mode::RemoteCompile;
        }
        Some("advise") => {
            args.next();
            mode = Mode::Advise;
        }
        Some("top") => {
            args.next();
            mode = Mode::Top;
        }
        _ => {}
    }
    while let Some(a) = args.next() {
        if common.accept(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "--emit" => emit = Some(args.next().ok_or("--emit needs a path or -")?),
            "--tolerance" => {
                let v = args.next().ok_or("--tolerance needs a value like 0.05")?;
                tolerance = v.parse().map_err(|_| format!("bad tolerance `{v}`"))?;
            }
            "--min-coverage" => {
                let v = args.next().ok_or("--min-coverage needs a value like 0.9")?;
                min_coverage = v.parse().map_err(|_| format!("bad coverage `{v}`"))?;
            }
            "--check" => check = true,
            "--server" => server = Some(args.next().ok_or("--server needs HOST:PORT")?),
            "--gate" => gate = Some(args.next().ok_or("--gate needs a trajectory JSON path")?),
            "--baseline" => baseline = Some(args.next().ok_or("--baseline needs a path")?),
            "--wall-tolerance" => {
                let v = args
                    .next()
                    .ok_or("--wall-tolerance needs a value like 0.5")?;
                wall_tolerance = v.parse().map_err(|_| format!("bad tolerance `{v}`"))?;
            }
            "--comm-tolerance" => {
                let v = args
                    .next()
                    .ok_or("--comm-tolerance needs a value like 0.02")?;
                comm_tolerance = v.parse().map_err(|_| format!("bad tolerance `{v}`"))?;
            }
            "--input" => stats_input = Some(args.next().ok_or("--input needs a path")?),
            "--elastic" => elastic = true,
            "--apply" => apply = true,
            "--attach" => attach = Some(args.next().ok_or("--attach needs HOST:PORT")?),
            "--once" => once = true,
            "--interval" => {
                let v = args.next().ok_or("--interval needs milliseconds")?;
                top_interval = Some(v.parse().map_err(|_| format!("bad interval `{v}`"))?);
            }
            "--report" => report = true,
            "--analysis" => analysis = true,
            "--run" => run = true,
            "--verify" => verify = true,
            "--verify-exact" => {
                verify = true;
                verify_exact = true;
            }
            "-o" | "--output" => plan_out = Some(args.next().ok_or("-o needs a path or -")?),
            "--help" | "-h" => {
                return Err(
                    "usage: acfc [run|trace] INPUT.f [--procs N | --partition AxB[xC]] \
                            [--distance D] [--no-optimize] [--emit FILE|-] [--report] \
                            [--analysis] [--profile] [--run] [--verify] [--verify-exact] \
                            [--overlap] [--transport inproc|tcp] [--ranks N] \
                            [--timeout-ms N] [--trace-dir DIR] [--tolerance T] [--check] \
                            [--plan FILE] [--checkpoint-every N] [--checkpoint-dir DIR] \
                            [--server HOST:PORT] [--elastic]\n\
                     or:    acfc compile INPUT.f --server HOST:PORT --partition AxB[xC] \
                            [-o plan.json] [--emit FILE|-]\n\
                     or:    acfc plan INPUT.f [-o plan.json] [compile options]\n\
                     or:    acfc resume DIR [--ranks M | --partition PxQ] \
                            [--transport inproc|tcp] [--engine E] [--threads T] \
                            [--server HOST:PORT] [--trace-dir DIR] \
                            [--verify | --verify-exact] [--profile]\n\
                     or:    acfc stats DIR [--input INPUT.f] [--tolerance T] \
                            [--min-coverage C] [--check] [compile options]\n\
                     or:    acfc advise DIR [--input INPUT.f] [-o advice.json] \
                            [--apply --checkpoint-dir DIR] [compile options]\n\
                     or:    acfc advise --gate CURRENT.json [--baseline FILE] \
                            [--wall-tolerance T] [--comm-tolerance T]\n\
                     or:    acfc top DIR | --attach HOST:PORT [--once] \
                            [--interval MS] [--check]"
                        .into(),
                )
            }
            other if input.is_none() && !other.starts_with('-') => input = Some(a),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    common.finish();
    // `advise --gate FILE` works on trajectory files alone — no trace
    // directory (positional input) required.
    let input = match input {
        Some(i) => i,
        None if mode == Mode::Advise && gate.is_some() => String::new(),
        // `top --attach ADDR` watches a service — no directory needed
        None if mode == Mode::Top && attach.is_some() => String::new(),
        None => return Err("no input file (try --help)".into()),
    };
    Ok(Args {
        input,
        common,
        emit,
        report,
        analysis,
        run,
        verify,
        verify_exact,
        mode,
        tolerance,
        min_coverage,
        check,
        stats_input,
        plan_out,
        server,
        gate,
        baseline,
        wall_tolerance,
        comm_tolerance,
        elastic,
        apply,
        attach,
        once,
        top_interval,
    })
}

fn runtime_err(msg: String) -> Error {
    Error::Runtime(autocfd::interp::RunError::new(msg))
}

/// Locate the `acfd-worker` binary next to this executable.
fn worker_binary() -> Result<PathBuf, Error> {
    let worker = std::env::current_exe()
        .map_err(|e| runtime_err(format!("cannot locate own executable: {e}")))?
        .with_file_name("acfd-worker");
    if !worker.exists() {
        return Err(runtime_err(format!(
            "worker binary `{}` not found (build it with `cargo build -p autocfd --bins`)",
            worker.display()
        )));
    }
    Ok(worker)
}

/// Launch `n` `acfd-worker` processes against a rendezvous socket,
/// stream their output through, and aggregate exit statuses;
/// `extra_args(i)` supplies each spawned worker's argument list beyond
/// `--connect ADDR` (workers are numbered by spawn order — *ranks* are
/// assigned by arrival at the rendezvous). A worker exiting with the
/// validation code makes the whole launch a validation failure;
/// anything else — including a chaos-aborted worker — is a runtime
/// failure.
fn launch_workers(n: usize, extra_args: impl Fn(usize) -> Vec<String>) -> Result<(), Error> {
    let worker = worker_binary()?;
    let rendezvous = Rendezvous::bind(n, Duration::from_secs(30))
        .map_err(|e| runtime_err(format!("cannot bind rendezvous socket: {e}")))?;
    let addr = rendezvous.local_addr();
    let server = rendezvous.spawn();
    eprintln!("acfc: rendezvous on {addr}, spawning {n} worker process(es)");

    let mut children = Vec::with_capacity(n);
    for i in 0..n {
        let mut cmd = std::process::Command::new(&worker);
        cmd.args(extra_args(i))
            .arg("--connect")
            .arg(addr.to_string());
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(runtime_err(format!("cannot spawn worker {i}: {e}")));
            }
        }
    }

    let mut failures = Vec::new();
    let mut validation_failed = false;
    for (i, child) in children.iter_mut().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                if status.code() == Some(4) {
                    validation_failed = true;
                }
                failures.push(format!("worker {i} exited with {status}"));
            }
            Err(e) => failures.push(format!("worker {i}: {e}")),
        }
    }
    match server.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => failures.push(format!("rendezvous: {e}")),
        Err(_) => failures.push("rendezvous thread panicked".into()),
    }
    if failures.is_empty() {
        eprintln!("acfc: all {n} worker(s) completed");
        Ok(())
    } else if validation_failed {
        Err(Error::Validation(failures.join("; ")))
    } else {
        Err(runtime_err(failures.join("; ")))
    }
}

/// The dependence-distance limit a compile actually used (option >
/// directive > default), recorded in the relaunch manifest so `acfc
/// resume` recompiles the identical program.
fn effective_distance(args: &Args, compiled: &Compiled) -> u64 {
    args.common
        .compile
        .distance
        .or(compiled.ir.directives.distance.map(u64::from))
        .unwrap_or(1)
}

/// Launch a multi-process run: one `acfd-worker` per rank. With
/// checkpointing on, first write the relaunch manifest (and the source
/// it embeds) into the checkpoint directory so `acfc resume DIR` can
/// reconstruct the identical compile. A `--chaos-abort-after` request
/// is injected into exactly one spawned worker.
fn run_tcp(args: &Args, compiled: &Compiled, journal: Option<&Path>) -> Result<(), Error> {
    let n = compiled.spmd_plan.ranks() as usize;
    let ckpt = args.common.checkpointing().map_err(runtime_err)?;
    if let Some((every, dir)) = &ckpt {
        let source = std::fs::read_to_string(&args.input)
            .map_err(|e| runtime_err(format!("cannot re-read `{}`: {e}", args.input)))?;
        let manifest = RunManifest {
            source,
            parts: compiled.partition.spec.parts.clone(),
            grid: compiled.partition.shape.extents.clone(),
            ranks: n,
            distance: effective_distance(args, compiled) as i64,
            optimize: args.common.compile.optimize,
            overlap: args.common.overlap,
            checkpoint_every: *every,
            timeout_ms: args
                .common
                .timeout_ms
                .unwrap_or(Duration::from_secs(30).as_millis() as u64),
            engine: args.common.compile.engine.name().into(),
            threads: args.common.compile.threads.into(),
        };
        checkpoint::write_manifest(Path::new(dir), &manifest)
            .map_err(|e| runtime_err(format!("cannot write relaunch manifest: {e}")))?;
    }

    // every worker re-compiles with the *resolved* partition so all
    // processes hold the identical plan, however the shape was chosen
    let partition_arg = compiled
        .partition
        .spec
        .parts
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join("x");
    launch_workers(n, |i| {
        let mut a = vec![
            args.input.clone(),
            "--partition".into(),
            partition_arg.clone(),
        ];
        a.extend(args.common.worker_args());
        if args.verify_exact {
            a.push("--verify-exact".into());
        } else if args.verify {
            a.push("--verify".into());
        }
        if let Some(dir) = journal {
            a.push("--journal".into());
            a.push(dir.to_string_lossy().into_owned());
        }
        if i == 0 {
            if let Some(v) = args.common.chaos_abort_after {
                a.push("--chaos-abort-after".into());
                a.push(v.to_string());
            }
        }
        a
    })
}

/// Relaunch a worker mesh from the checkpoint directory `dir`, resuming
/// the pinned `epoch` under the geometry and execution knobs `manifest`
/// records (the manifest must already be rewritten to the *target*
/// geometry — workers infer an elastic move by comparing it to the
/// epoch's snapshots). `plan_file` substitutes a server-compiled plan
/// artifact for each worker's local compile.
fn launch_resumed(
    dir: &Path,
    manifest: &RunManifest,
    epoch: u64,
    args: &Args,
    journal_dir: Option<&Path>,
    plan_file: Option<&Path>,
) -> Result<(), Error> {
    // workers re-read the source from disk; hand them the manifest's
    // embedded copy, which is the authority even if the original file
    // changed since the checkpointed launch
    let source_path = dir.join("source.f");
    std::fs::write(&source_path, &manifest.source)
        .map_err(|e| runtime_err(format!("cannot write `{}`: {e}", source_path.display())))?;
    let engine = autocfd::codegen::EnginePref::parse(&manifest.engine).unwrap_or_default();
    let partition_arg = manifest
        .parts
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join("x");
    launch_workers(manifest.ranks, |_| {
        let mut a = vec![
            source_path.to_string_lossy().into_owned(),
            "--partition".into(),
            partition_arg.clone(),
            "--distance".into(),
            manifest.distance.to_string(),
            "--timeout-ms".into(),
            manifest.timeout_ms.to_string(),
            "--checkpoint-every".into(),
            manifest.checkpoint_every.to_string(),
            "--checkpoint-dir".into(),
            dir.to_string_lossy().into_owned(),
            "--resume-epoch".into(),
            epoch.to_string(),
        ];
        if !manifest.optimize {
            a.push("--no-optimize".into());
        }
        if engine != autocfd::codegen::EnginePref::Tree {
            a.push("--engine".into());
            a.push(engine.name().into());
        }
        if manifest.threads > 1 {
            a.push("--threads".into());
            a.push(manifest.threads.to_string());
        }
        if manifest.overlap {
            a.push("--overlap".into());
        }
        if let Some(p) = plan_file {
            a.push("--plan".into());
            a.push(p.to_string_lossy().into_owned());
        }
        if args.verify_exact {
            a.push("--verify-exact".into());
        } else if args.verify {
            a.push("--verify".into());
        }
        if args.common.profile {
            a.push("--profile".into());
        }
        if let Some(d) = journal_dir {
            a.push("--journal".into());
            a.push(d.to_string_lossy().into_owned());
        }
        a
    })
}

/// `--server ADDR` on a resume: recompile the plan for the (possibly
/// new) geometry on the resident daemon — the content-addressed cache
/// makes a repeat resume a cache hit — and stash the artifact in the
/// checkpoint directory for the workers' `--plan`.
fn fetch_remote_plan(addr: &str, manifest: &RunManifest, dir: &Path) -> Result<PathBuf, ExitCode> {
    let req = CompileReq {
        source: manifest.source.clone(),
        parts: manifest.parts.iter().map(|&p| p as usize).collect(),
        distance: Some(manifest.distance as usize),
        optimize: manifest.optimize,
        engine: autocfd::codegen::EnginePref::parse(&manifest.engine).unwrap_or_default(),
        threads: manifest.threads.min(u64::from(u32::MAX)) as u32,
    };
    let mut client = Client::connect(addr).map_err(|e| remote_exit(&e))?;
    let resp = client
        .request(&Request::Compile(req), &mut |_| {})
        .map_err(|e| remote_exit(&e))?;
    eprintln!("acfc: server recompile: {}", remote_verdict(&resp));
    let plan = resp.get("plan").and_then(Value::as_str).unwrap_or("");
    let path = dir.join("plan.json");
    if let Err(e) = std::fs::write(&path, plan) {
        eprintln!("acfc: cannot write `{}`: {e}", path.display());
        return Err(ExitCode::FAILURE);
    }
    Ok(path)
}

/// `acfc resume --transport inproc`: resume the epoch on rank-threads
/// in this process through
/// [`autocfd::interp::RunConfig::resume_from`] instead of spawning
/// workers — checkpointing continues into the same directory.
fn resume_inproc(
    args: &Args,
    dir: &Path,
    manifest: &RunManifest,
    epoch: u64,
    compiled: &Compiled,
    journal_dir: Option<&Path>,
) -> ExitCode {
    let ckpt = CheckpointOpts {
        every: manifest.checkpoint_every,
        dir: dir.to_path_buf(),
        chaos_abort_after: None,
    };
    let runs = compiled
        .run_config()
        .overlap(manifest.overlap)
        .checkpoint(ckpt)
        .resume_from(dir)
        .resume_epoch(epoch)
        .run_parallel_traced();
    if let Ok((m, _)) = &runs[0].outcome {
        for line in &m.output {
            println!("{line}");
        }
    }
    let mut results = Vec::new();
    let mut failed: Option<Error> = None;
    for (rank, run) in runs.into_iter().enumerate() {
        if let Some(d) = journal_dir {
            if let Err(e) = obs::write_rank_run(d, "inproc", rank, manifest.ranks, &run) {
                eprintln!("acfc: cannot write journal for rank {rank}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if args.common.profile {
            let ws = &run.wire_stats;
            eprintln!(
                "acfc: rank {rank}: wire {} msg / {} B sent, {} msg / {} B recvd",
                ws.msgs_sent, ws.bytes_sent, ws.msgs_recvd, ws.bytes_recvd
            );
        }
        match run.outcome {
            Ok((machine, frame)) => results.push(autocfd::interp::RankResult {
                machine,
                frame,
                comm_stats: run.comm_stats,
                wire_stats: run.wire_stats,
                phases: run.phases,
                trace: run.trace,
            }),
            Err(e) => {
                eprintln!("acfc: rank {rank}: {e}");
                failed = Some(Error::Runtime(e));
            }
        }
    }
    if let Some(e) = failed {
        return exit_with(&e);
    }
    if args.verify {
        let seq = match compiled.run_sequential(vec![]) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("acfc: sequential reference run: {e}");
                return exit_with(&Error::Runtime(e));
            }
        };
        let tol = if args.verify_exact { 0.0 } else { 1e-12 };
        match verify_owned_regions(&seq, &results, &compiled.spmd_plan, tol) {
            Ok(d) => eprintln!("acfc: verified — max |seq - par| = {d:e}"),
            Err(e) => {
                eprintln!("acfc: VERIFICATION FAILED: {e}");
                return exit_with(&Error::Validation(e));
            }
        }
    }
    ExitCode::SUCCESS
}

/// `acfc resume DIR`: reload the relaunch manifest, recompile the
/// embedded source (statement ids are minted deterministically, so the
/// saved cursors stay valid), find the newest epoch with a complete
/// consistent snapshot set — torn or partial epochs are skipped — and
/// relaunch the mesh from it. `--ranks M` / `--partition PxQ` resume
/// elastically onto a different geometry: the epoch's N-rank snapshots
/// are regathered and re-scattered by the resuming ranks, and the
/// manifest is rewritten to the new geometry *before* launch so the
/// checkpoint directory's future epochs stay self-consistent.
fn run_resume(args: &Args) -> ExitCode {
    let dir = PathBuf::from(&args.input);
    let mut manifest = match checkpoint::load_manifest(&dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("acfc: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Target geometry: explicit --partition beats --ranks (auto-chosen
    // over the manifest's recorded grid) beats the recorded partition.
    let target_parts: Vec<u32> = if let Some(p) = &args.common.compile.partition {
        p.clone()
    } else if let Some(m) = args.common.ranks.filter(|&m| m as usize != manifest.ranks) {
        if manifest.grid.is_empty() {
            let e = Error::Validation(format!(
                "manifest predates grid-geometry recording; pass an explicit \
                 --partition to resume on {m} ranks"
            ));
            eprintln!("acfc: {e}");
            return exit_with(&e);
        }
        let shape = autocfd::grid::GridShape {
            extents: manifest.grid.clone(),
        };
        autocfd::grid::choose_partition(&shape, m, manifest.distance as u64)
            .0
            .spec
            .parts
    } else {
        manifest.parts.clone()
    };
    // Execution-knob overrides: a non-default CLI flag beats the
    // manifest; everything else resumes exactly as launched.
    if args.common.compile.engine != autocfd::codegen::EnginePref::Tree {
        manifest.engine = args.common.compile.engine.name().into();
    }
    if args.common.compile.threads != 1 {
        manifest.threads = args.common.compile.threads.into();
    }
    if let Some(ms) = args.common.timeout_ms {
        manifest.timeout_ms = ms;
    }
    if args.common.overlap {
        manifest.overlap = true;
    }
    let engine = match autocfd::codegen::EnginePref::parse(&manifest.engine) {
        Some(e) => e,
        None => {
            eprintln!("acfc: manifest names unknown engine `{}`", manifest.engine);
            return exit_with(&Error::Validation("manifest engine unknown".into()));
        }
    };
    let opts = autocfd::CompileOptions {
        partition: Some(target_parts.clone()),
        distance: Some(manifest.distance as u64),
        optimize: manifest.optimize,
        engine,
        threads: manifest.threads.min(u64::from(u32::MAX)) as u32,
        ..Default::default()
    };
    let compiled = match compile(&manifest.source, &opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("acfc: manifest source no longer compiles: {e}");
            return exit_with(&Error::Compile(e));
        }
    };
    let n = compiled.spmd_plan.ranks() as usize;
    if let Some(m) = args.common.ranks {
        if m as usize != n {
            eprintln!("acfc: --ranks {m} conflicts with partition ({n} subtasks)");
            return ExitCode::FAILURE;
        }
    }
    // Pick the epoch before committing the target geometry below, so a
    // failure here leaves the manifest untouched.
    let epoch = match checkpoint::latest_consistent_epoch(&dir) {
        Some(e) => e,
        None => {
            let err = runtime_err(format!(
                "no consistent checkpoint epoch under `{}` (need all rank snapshots \
                 of one epoch to parse and agree)",
                dir.display()
            ));
            eprintln!("acfc: {err}");
            return exit_with(&err);
        }
    };
    if target_parts != manifest.parts || n != manifest.ranks {
        eprintln!(
            "acfc: elastic resume: repartitioning {} ({} rank(s)) -> {} ({n} rank(s))",
            manifest
                .parts
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join("x"),
            manifest.ranks,
            compiled.partition.spec.display(),
        );
    }
    eprintln!(
        "acfc: resuming from checkpoint epoch {epoch} in {}",
        dir.display()
    );
    // Commit the target geometry: workers launched below — and any
    // later resume — read this manifest. Epochs recorded under the old
    // geometry stay loadable via their pinned epoch number, but no
    // longer count as "latest".
    manifest.parts = target_parts;
    manifest.ranks = n;
    manifest.grid = compiled.partition.shape.extents.clone();
    if let Err(e) = checkpoint::write_manifest(&dir, &manifest) {
        eprintln!("acfc: cannot rewrite relaunch manifest: {e}");
        return ExitCode::FAILURE;
    }
    // `--trace-dir` journals the resumed run, so `acfc stats --check`
    // can validate a post-recovery execution like any other
    let journal_dir = args.common.trace_dir.clone().map(PathBuf::from);
    if let Some(d) = &journal_dir {
        if let Err(e) = obs::clean_trace_dir(d) {
            eprintln!("acfc: cannot clean `{}`: {e}", d.display());
            return ExitCode::FAILURE;
        }
    }
    // Leave the authoritative source next to the manifest on every
    // path (the TCP relaunch rewrites it for its workers): post-resume
    // tooling — `acfc stats DIR --input ck/source.f` — reads it, and
    // the original `.f` may have changed or vanished since the launch.
    let source_path = dir.join("source.f");
    if let Err(e) = std::fs::write(&source_path, &manifest.source) {
        eprintln!("acfc: cannot write `{}`: {e}", source_path.display());
        return ExitCode::FAILURE;
    }
    if args.common.transport == TransportKind::Inproc && args.server.is_none() {
        return resume_inproc(
            args,
            &dir,
            &manifest,
            epoch,
            &compiled,
            journal_dir.as_deref(),
        );
    }
    let plan_file = match args.server.as_deref() {
        Some(addr) => match fetch_remote_plan(addr, &manifest, &dir) {
            Ok(p) => Some(p),
            Err(code) => return code,
        },
        None => None,
    };
    let result = launch_resumed(
        &dir,
        &manifest,
        epoch,
        args,
        journal_dir.as_deref(),
        plan_file.as_deref(),
    );
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("acfc: {e}");
            exit_with(&e)
        }
    }
}

/// `acfc run --elastic`: after a runtime-class failure of a
/// checkpointed tcp run (a chaos abort, a killed worker, a hang
/// declared dead by the heartbeat liveness check), shrink the mesh by
/// one rank, re-partition the recorded grid for the survivors, and
/// resume from the newest consistent epoch — repeating until a relaunch
/// succeeds or one rank remains. Chaos injection is never re-applied to
/// a recovery launch.
fn elastic_recover(args: &Args, first_err: Error) -> Result<(), Error> {
    if !matches!(first_err, Error::Runtime(_) | Error::Comm(_)) {
        return Err(first_err); // only failed peers are recoverable
    }
    let Some((_, ckdir)) = args.common.checkpointing().map_err(runtime_err)? else {
        return Err(first_err);
    };
    let dir = PathBuf::from(ckdir);
    let mut err = first_err;
    loop {
        let mut manifest = match checkpoint::load_manifest(&dir) {
            Ok(m) => m,
            Err(_) => return Err(err),
        };
        // each epoch is judged in its own geometry — the cut the
        // snapshots were actually written under
        let Some(epoch) = checkpoint::latest_consistent_epoch(&dir) else {
            return Err(err);
        };
        let survivors = manifest.ranks.saturating_sub(1);
        if survivors == 0 || manifest.grid.is_empty() {
            return Err(err);
        }
        let shape = autocfd::grid::GridShape {
            extents: manifest.grid.clone(),
        };
        let (part, _) =
            autocfd::grid::choose_partition(&shape, survivors as u32, manifest.distance as u64);
        eprintln!(
            "acfc: elastic: mesh failed ({err}); shrinking {} -> {survivors} rank(s) \
             (partition {}), resuming epoch {epoch}",
            manifest.ranks,
            part.spec.display()
        );
        manifest.parts = part.spec.parts.clone();
        manifest.ranks = survivors;
        checkpoint::write_manifest(&dir, &manifest)
            .map_err(|e| runtime_err(format!("cannot rewrite relaunch manifest: {e}")))?;
        match launch_resumed(&dir, &manifest, epoch, args, None, None) {
            Ok(()) => {
                eprintln!("acfc: elastic: recovered on {survivors} rank(s)");
                return Ok(());
            }
            e @ Err(Error::Runtime(_)) | e @ Err(Error::Comm(_)) => {
                err = e.unwrap_err(); // shrink further
            }
            Err(e) => return Err(e),
        }
    }
}

/// `acfc plan INPUT.f -o plan.json`: emit the compiled SpmdPlan as
/// schema-versioned JSON (stdout when `-o` is `-` or absent).
fn run_plan(args: &Args, compiled: &Compiled) -> ExitCode {
    let text = autocfd::planio::plan_to_json(&compiled.spmd_plan);
    match args.plan_out.as_deref() {
        None | Some("-") => println!("{text}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("acfc: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("acfc: plan written to {path}");
        }
    }
    ExitCode::SUCCESS
}

/// The directory `trace` mode journals into: `--trace-dir`, or
/// `<INPUT stem>.trace/` next to the source.
fn trace_dir_of(args: &Args) -> PathBuf {
    args.common
        .trace_dir
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            let stem = Path::new(&args.input)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("acfc");
            PathBuf::from(format!("{stem}.trace"))
        })
}

/// Map a service error onto the local exit-code conventions: bad
/// request 1, compile failure 2, server-side runtime failure 3.
fn remote_exit(e: &ServiceError) -> ExitCode {
    eprintln!("acfc: server: {e}");
    ExitCode::from(match e.class {
        ErrorClass::BadRequest => 1,
        ErrorClass::Compile => 2,
        ErrorClass::Internal => 3,
    })
}

/// The compile request `--server` submits. The server never auto-picks
/// a partition (choosing one takes the frontend it is trying to skip),
/// so an explicit `--partition` is mandatory here.
fn remote_request(args: &Args, source: &str) -> Result<CompileReq, String> {
    let parts = args
        .common
        .compile
        .partition
        .as_ref()
        .filter(|p| !p.is_empty())
        .ok_or("--server needs an explicit --partition AxB[xC]")?;
    Ok(CompileReq {
        source: source.into(),
        parts: parts.iter().map(|&p| p as usize).collect(),
        distance: args.common.compile.distance.map(|d| d as usize),
        optimize: args.common.compile.optimize,
        engine: args.common.compile.engine,
        threads: args.common.compile.threads,
    })
}

/// Render the cache verdict trio every server response carries.
fn remote_verdict(resp: &Value) -> String {
    let cache = resp.get("cache").and_then(Value::as_str).unwrap_or("?");
    let digest = resp.get("digest").and_then(Value::as_str).unwrap_or("?");
    let ms = resp
        .get("compile_ms")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    format!("cache {cache}, plan {digest}, compile {ms:.1} ms")
}

/// `--server ADDR`: submit the source to a resident `acfd-compile`
/// daemon instead of compiling locally. `acfc compile` stops after the
/// (possibly cached) compile; `acfc run`/`acfc trace` execute on the
/// server and stream the per-rank journals back, so the trace report —
/// and `acfc stats` afterwards — work unchanged on remote runs.
fn run_remote(args: &Args, source: &str, addr: &str) -> ExitCode {
    let req = match remote_request(args, source) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("acfc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return remote_exit(&e),
    };

    if args.mode == Mode::RemoteCompile {
        let resp = match client.request(&Request::Compile(req), &mut |_| {}) {
            Ok(v) => v,
            Err(e) => return remote_exit(&e),
        };
        eprintln!("acfc: server compile: {}", remote_verdict(&resp));
        if let Some(path) = args.plan_out.as_deref() {
            let plan = resp.get("plan").and_then(Value::as_str).unwrap_or("");
            if path == "-" {
                println!("{plan}");
            } else if let Err(e) = std::fs::write(path, plan) {
                eprintln!("acfc: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            } else {
                eprintln!("acfc: plan written to {path}");
            }
        }
        if let Some(path) = args.emit.as_deref() {
            let out = resp
                .get("parallel_source")
                .and_then(Value::as_str)
                .unwrap_or("");
            if path == "-" {
                print!("{out}");
            } else if let Err(e) = std::fs::write(path, out) {
                eprintln!("acfc: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    // run / trace: the server's per-rank journals stream back into a
    // local trace directory, arrival order, one file per rank
    let dir: Option<PathBuf> = if args.mode == Mode::Trace {
        Some(trace_dir_of(args))
    } else {
        args.common.trace_dir.clone().map(PathBuf::from)
    };
    if let Some(d) = &dir {
        if let Err(e) = obs::clean_trace_dir(d).and_then(|()| std::fs::create_dir_all(d)) {
            eprintln!("acfc: cannot prepare `{}`: {e}", d.display());
            return ExitCode::FAILURE;
        }
    }
    let run = Request::Run(RunReq {
        compile: req,
        overlap: args.common.overlap,
        verify: args.verify,
    });
    let mut files: std::collections::HashMap<usize, std::fs::File> = Default::default();
    let mut stream_err: Option<String> = None;
    let resp = client.request(&run, &mut |item| match item {
        StreamItem::Output { line } => println!("{line}"),
        StreamItem::Journal { rank, line } => {
            let Some(d) = &dir else { return };
            if stream_err.is_some() {
                return;
            }
            let written = (|| -> std::io::Result<()> {
                use std::collections::hash_map::Entry;
                let f = match files.entry(rank) {
                    Entry::Occupied(o) => o.into_mut(),
                    Entry::Vacant(v) => v.insert(
                        std::fs::OpenOptions::new()
                            .create(true)
                            .append(true)
                            .open(journal::rank_path(d, rank))?,
                    ),
                };
                writeln!(f, "{line}")
            })();
            if let Err(e) = written {
                stream_err = Some(format!("rank {rank}: {e}"));
            }
        }
    });
    let resp = match resp {
        Ok(v) => v,
        Err(e) => return remote_exit(&e),
    };
    if let Some(e) = stream_err {
        eprintln!("acfc: cannot write streamed journal: {e}");
        return ExitCode::FAILURE;
    }
    let ranks = resp.get("ranks").and_then(Value::as_int).unwrap_or(0);
    eprintln!(
        "acfc: server run: {}, {ranks} rank(s)",
        remote_verdict(&resp)
    );
    if matches!(resp.get("verified"), Some(Value::Bool(true))) {
        let d = resp.get("max_diff").and_then(Value::as_f64).unwrap_or(0.0);
        eprintln!("acfc: verified (server) — max |seq - par| = {d:e}");
    }
    if args.mode != Mode::Trace {
        return ExitCode::SUCCESS;
    }
    // trace: render the report from the streamed journals, exactly as a
    // local `acfc trace` would (the forecast table needs a local
    // compile, so it stays with `acfc stats DIR --input INPUT.f`)
    let dir = dir.expect("trace mode always journals");
    let merged = match obs::load_merged(&dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("acfc: cannot load trace dir `{}`: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if let Some(w) = obs::skipped_warning(&merged) {
        eprintln!("acfc: {w}");
    }
    let chrome = autocfd::runtime::chrome_trace(&merged);
    if let Err(e) = std::fs::write(dir.join("trace.json"), chrome) {
        eprintln!("acfc: cannot write trace.json: {e}");
        return ExitCode::FAILURE;
    }
    eprint!("{}", obs::render_report(&merged));
    eprintln!(
        "acfc: trace written to {} (open trace.json in ui.perfetto.dev)",
        dir.display()
    );
    if args.check {
        let failures = check_failures(&merged, None, args.min_coverage);
        if !failures.is_empty() {
            return check_exit(&failures);
        }
        eprintln!("acfc: trace checks passed");
    }
    ExitCode::SUCCESS
}

/// Validate a merged trace: complete journals, at least one
/// communication phase, per-rank coverage, and (when a forecast is
/// available) the predicted-vs-measured verdicts. Returns the failures.
fn check_failures(
    merged: &autocfd::runtime::MergedTrace,
    checks: Option<&[obs::PhaseCheck]>,
    min_coverage: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if !merged.complete {
        failures.push("journal incomplete (a rank stopped before its footer)".into());
    }
    if !merged.phase_names.iter().any(|p| p.len() > 1) {
        failures.push("no communication phases recorded".into());
    }
    for b in autocfd::runtime::rank_breakdown(&merged.traces) {
        if b.coverage() < min_coverage {
            failures.push(format!(
                "rank {} trace covers {:.1}% of wall time (< {:.1}%)",
                b.rank,
                b.coverage() * 100.0,
                min_coverage * 100.0
            ));
        }
    }
    if let Some(checks) = checks {
        for c in checks.iter().filter(|c| !c.ok()) {
            failures.push(format!(
                "phase {}: measured traffic off the model (msgs {} vs {}, bytes {} vs {})",
                c.phase,
                c.msgs_measured,
                c.visits * c.msgs_per_visit,
                c.bytes.measured,
                c.bytes.predicted
            ));
        }
    }
    failures
}

/// Report trace-check failures and return the validation exit code.
fn check_exit(failures: &[String]) -> ExitCode {
    for f in failures {
        eprintln!("acfc: CHECK FAILED: {f}");
    }
    exit_with(&Error::Validation("trace checks failed".into()))
}

/// The process exit code for a categorized error.
fn exit_with(e: &Error) -> ExitCode {
    ExitCode::from(e.exit_code())
}

/// `acfc stats DIR`: re-render a trace directory; with `--input`, also
/// cross-validate against the forecast for that source.
fn run_stats(args: &Args) -> ExitCode {
    let dir = Path::new(&args.input);
    let merged = match obs::load_merged(dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("acfc: cannot load trace dir `{}`: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", obs::render_report(&merged));
    if let Some(w) = obs::skipped_warning(&merged) {
        eprintln!("acfc: {w}");
    }
    // telemetry health: a `--telemetry` run leaves spool files next to
    // the journals — render the per-rank dropped/gap verdicts with them
    let telemetry = obs::scan_telemetry(dir);
    if !telemetry.is_empty() {
        eprintln!("telemetry health ({} rank spool(s)):", telemetry.len());
        eprint!(
            "{}",
            obs::render_telemetry_health(&telemetry, TELEMETRY_DROP_THRESHOLD)
        );
    }
    let mut checks = None;
    if let Some(src_path) = &args.stats_input {
        let source = match std::fs::read_to_string(src_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("acfc: cannot read `{src_path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let compiled = match compile(&source, &args.common.compile) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("acfc: {e}");
                return exit_with(&Error::Compile(e));
            }
        };
        match obs::cross_validate(&compiled, &merged, args.tolerance) {
            Ok(c) => {
                eprint!("{}", obs::render_cross_validation(&c));
                checks = Some(c);
            }
            Err(e) => {
                eprintln!("acfc: cross-validation: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.check {
        let mut failures = check_failures(&merged, checks.as_deref(), args.min_coverage);
        failures.extend(obs::telemetry_failures(
            &telemetry,
            TELEMETRY_DROP_THRESHOLD,
        ));
        if !failures.is_empty() {
            return check_exit(&failures);
        }
        eprintln!("acfc: trace checks passed");
    }
    ExitCode::SUCCESS
}

/// `acfc advise --gate CURRENT.json`: compare a freshly measured perf
/// trajectory against the committed baseline; any wall-time or
/// comm-volume regression beyond tolerance exits with the distinct
/// perf-regression code (5).
fn run_gate(args: &Args, current_path: &str) -> ExitCode {
    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| "BENCH_perf_trajectory.json".into());
    let read = |path: &str| -> Result<Vec<advisor::TrajectoryRow>, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        advisor::parse_trajectory(&text).map_err(|e| format!("`{path}`: {e}"))
    };
    let (current, baseline) = match (read(current_path), read(&baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("acfc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = advisor::GateConfig {
        wall_tolerance: args.wall_tolerance,
        comm_tolerance: args.comm_tolerance,
    };
    let regressions = advisor::gate(&current, &baseline, &cfg);
    eprint!(
        "{}",
        advisor::render_gate(&regressions, baseline.len(), &cfg)
    );
    if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        exit_with(&Error::PerfRegression(format!(
            "{} of {} trajectory rows regressed vs `{baseline_path}`",
            regressions.len(),
            baseline.len()
        )))
    }
}

/// `acfc advise DIR`: mine a trace directory for load imbalance and
/// exposed communication; with `--input`, also compute the forecast
/// divergence and search candidate partitions through `cluster-sim`.
/// Writes the schema-versioned `advice.json` next to the journals (or
/// to `-o`).
fn run_advise(args: &Args) -> ExitCode {
    if let Some(current) = &args.gate {
        return run_gate(args, current);
    }
    if args.input.is_empty() {
        eprintln!("acfc: advise needs a trace directory or --gate FILE (try --help)");
        return ExitCode::FAILURE;
    }
    let dir = Path::new(&args.input);
    let merged = match obs::load_merged(dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("acfc: cannot load trace dir `{}`: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if let Some(w) = obs::skipped_warning(&merged) {
        eprintln!("acfc: {w}");
    }
    let mut advice = advisor::Advice {
        diagnosis: advisor::diagnose(&merged),
        divergence: None,
        recommendation: None,
        tolerance: args.tolerance,
    };
    if let Some(src_path) = &args.stats_input {
        let source = match std::fs::read_to_string(src_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("acfc: cannot read `{src_path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let compiled = match compile(&source, &args.common.compile) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("acfc: {e}");
                return exit_with(&Error::Compile(e));
            }
        };
        if compiled.spmd_plan.ranks() as usize != advice.diagnosis.ranks {
            let e = Error::Validation(format!(
                "journal has {} ranks but `{src_path}` compiles to {} (pass the partition the \
                 trace ran on)",
                advice.diagnosis.ranks,
                compiled.spmd_plan.ranks()
            ));
            eprintln!("acfc: {e}");
            return exit_with(&e);
        }
        let fc = match autocfd::interp::forecast(&compiled.parallel_file, &compiled.spmd_plan) {
            Ok(fc) => fc,
            Err(e) => {
                eprintln!("acfc: forecast: {e}");
                return ExitCode::FAILURE;
            }
        };
        let metrics = autocfd::runtime::phase_metrics(&merged);
        advice.divergence = Some(advisor::divergence(
            &fc,
            &metrics,
            obs::frame_header_bytes(&merged.transport),
        ));
        match advisor::search(
            &advice.diagnosis,
            &compiled.partition.shape,
            &compiled.partition.spec,
            &advisor::SearchConfig::default(),
        ) {
            Ok(rec) => advice.recommendation = Some(rec),
            Err(e) => {
                eprintln!("acfc: partition search: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!(
            "acfc: no --input source: diagnosis only (no forecast divergence or partition search)"
        );
    }
    eprint!("{}", advice.render());
    let json = format!("{}\n", advice.to_json());
    match args.plan_out.as_deref() {
        Some("-") => print!("{json}"),
        out => {
            let path = out
                .map(PathBuf::from)
                .unwrap_or_else(|| dir.join("advice.json"));
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("acfc: cannot write `{}`: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("acfc: advice written to {}", path.display());
        }
    }
    if args.apply {
        return apply_advice(args, &advice);
    }
    ExitCode::SUCCESS
}

/// `acfc advise --apply`: rewrite the checkpointed run's relaunch
/// manifest to the advisor's top-ranked partition and elastically
/// resume it from the newest consistent epoch — the trace-driven
/// closing of the loop: measure, diagnose, repartition, continue.
fn apply_advice(args: &Args, advice: &advisor::Advice) -> ExitCode {
    let Some(rec) = &advice.recommendation else {
        eprintln!("acfc: --apply needs a partition search (pass --input INPUT.f)");
        return ExitCode::FAILURE;
    };
    let Some(ckdir) = &args.common.checkpoint_dir else {
        eprintln!("acfc: --apply needs --checkpoint-dir DIR (the checkpointed run to resume)");
        return ExitCode::FAILURE;
    };
    let dir = PathBuf::from(ckdir);
    let mut manifest = match checkpoint::load_manifest(&dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("acfc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let best = rec.best();
    let best_disp = best
        .parts
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join("x");
    if best.parts == manifest.parts {
        eprintln!("acfc: advised partition {best_disp} is already in use; nothing to apply");
        return ExitCode::SUCCESS;
    }
    // judged against the manifest still on disk — the geometry the
    // snapshots were cut under
    let Some(epoch) = checkpoint::latest_consistent_epoch(&dir) else {
        let e = runtime_err(format!(
            "no consistent checkpoint epoch under `{}` to apply the advice to",
            dir.display()
        ));
        eprintln!("acfc: {e}");
        return exit_with(&e);
    };
    let ranks: usize = best.parts.iter().map(|&p| p as usize).product();
    eprintln!(
        "acfc: applying advised partition {best_disp}: resuming epoch {epoch} on \
         {ranks} rank(s) (predicted wall {:+.1}%)",
        best.wall_delta_pct
    );
    manifest.parts = best.parts.clone();
    manifest.ranks = ranks;
    if let Err(e) = checkpoint::write_manifest(&dir, &manifest) {
        eprintln!("acfc: cannot rewrite relaunch manifest: {e}");
        return ExitCode::FAILURE;
    }
    match launch_resumed(&dir, &manifest, epoch, args, None, None) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("acfc: {e}");
            exit_with(&e)
        }
    }
}

/// The dropped-frame fraction above which `top --check` and
/// `stats --check` call a rank's telemetry unhealthy.
const TELEMETRY_DROP_THRESHOLD: f64 = 0.1;

/// A rank is rendered `live` while its spool was written more recently
/// than this (workers flush every frame, so a healthy rank's spool is
/// always fresher than a couple of publish intervals).
const TOP_LIVE_WINDOW: Duration = Duration::from_secs(2);

/// Render one `acfc top` frame from a trace directory's telemetry
/// spools, plus the health failures a `--check` would report.
fn render_top_dir(dir: &Path) -> (String, Vec<String>) {
    let rows = obs::scan_telemetry(dir);
    if rows.is_empty() {
        let msg = format!(
            "acfc top — {} | no telemetry spools yet (run with --telemetry)\n",
            dir.display()
        );
        return (msg, vec!["no telemetry spool files found".into()]);
    }
    // the frames' cumulative micros, read through the same two ratio
    // definitions `stats` and `advise` use
    let us = Duration::from_micros;
    let work: Vec<Duration> = rows
        .iter()
        .map(|r| us(r.latest.compute_us + r.latest.overlap_us))
        .collect();
    let over_mean = autocfd::runtime::over_mean(&work);
    let max_epoch = rows
        .iter()
        .map(|r| r.latest.checkpoint_epoch)
        .max()
        .unwrap_or(0);
    let dropped: u64 = rows.iter().map(|r| r.latest.dropped).sum();
    let mut out = format!(
        "acfc top — {} | {} rank(s), engine {}, {} frame(s) dropped\n",
        dir.display(),
        rows.len(),
        rows[0].latest.engine,
        dropped
    );
    out.push_str(&format!(
        "{:>4}  {:<12}  {:>9}  {:>7}  {:>7}  {:>5}  {:>4}  {:>5}  {}\n",
        "rank", "phase", "busy", "imbal", "expos", "ckpt", "lag", "drop", "last frame"
    ));
    for (i, r) in rows.iter().enumerate() {
        let imbal = over_mean
            .as_ref()
            .map_or("-".into(), |ratios| format!("{:.2}", ratios[i]));
        let exposed = autocfd::runtime::exposed_pct(us(r.latest.wait_us), us(r.latest.overlap_us))
            .map_or("-".into(), |p| format!("{p:.1}%"));
        let liveness = match r.age {
            Some(age) if age < TOP_LIVE_WINDOW => format!("live ({:.1}s)", age.as_secs_f64()),
            Some(age) => format!("idle ({:.0}s)", age.as_secs_f64()),
            None => "?".into(),
        };
        out.push_str(&format!(
            "{:>4}  {:<12}  {:>7}ms  {:>7}  {:>7}  {:>5}  {:>4}  {:>5}  {}\n",
            r.rank,
            r.latest.phase,
            r.latest.busy_us() / 1_000,
            imbal,
            exposed,
            r.latest.checkpoint_epoch,
            max_epoch - r.latest.checkpoint_epoch,
            r.latest.dropped,
            liveness,
        ));
    }
    let failures = obs::telemetry_failures(&rows, TELEMETRY_DROP_THRESHOLD);
    (out, failures)
}

/// Render one `acfc top --attach` frame from a resident compile
/// service's `Stats` counters (queue depth, cache hit rate, latencies).
fn render_top_attach(addr: &str) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let resp = client
        .request(&Request::Stats, &mut |_| {})
        .map_err(|e| e.to_string())?;
    let int = |k: &str| resp.get(k).and_then(Value::as_int).unwrap_or(0);
    let flt = |k: &str| resp.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let hits = int("hits");
    let misses = int("misses");
    let lookups = hits + misses;
    let hit_rate = if lookups > 0 {
        format!("{:.1}%", hits as f64 / lookups as f64 * 100.0)
    } else {
        "-".into()
    };
    let hot = resp
        .get("advice_hot_phase")
        .and_then(Value::as_str)
        .unwrap_or("none")
        .to_string();
    Ok(format!(
        "acfc top — compile service {addr}\n\
         queue depth    {}\n\
         served         {}\n\
         cache          {} hit / {} miss ({hit_rate}), {}/{} entries\n\
         compile ms     p50 {:.1}  p95 {:.1}  max {:.1}\n\
         hot phase      {hot} ({:.1} ms, {:.0}% of busy)\n",
        int("queue_depth"),
        int("served"),
        hits,
        misses,
        int("entries"),
        int("capacity"),
        flt("compile_ms_p50"),
        flt("compile_ms_p95"),
        flt("compile_ms_max"),
        flt("advice_hot_phase_ms"),
        flt("advice_hot_phase_share_pct"),
    ))
}

/// `acfc top`: redraw the live per-rank table (or the service counters
/// with `--attach`) every `--interval` until interrupted; `--once`
/// renders a single frame, and with `--check` exits nonzero when the
/// telemetry plane is unhealthy.
fn run_top(args: &Args) -> ExitCode {
    let interval = Duration::from_millis(args.top_interval.unwrap_or(500));
    loop {
        let (screen, failures) = match args.attach.as_deref() {
            Some(addr) => match render_top_attach(addr) {
                Ok(s) => (s, Vec::new()),
                Err(e) => (
                    format!("acfc top — service {addr} unreachable: {e}\n"),
                    vec![format!("service {addr}: {e}")],
                ),
            },
            None => render_top_dir(Path::new(&args.input)),
        };
        if !args.once {
            // clear screen + home: redraw the table in place
            print!("\x1b[2J\x1b[H");
        }
        print!("{screen}");
        let _ = std::io::stdout().flush();
        if args.once {
            if args.check && !failures.is_empty() {
                for f in &failures {
                    eprintln!("acfc: CHECK FAILED: {f}");
                }
                return exit_with(&Error::Validation("telemetry checks failed".into()));
            }
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}

/// `acfc trace INPUT.f`: run with journaling, export `trace.json`, and
/// render the report plus the predicted-vs-measured table. Renders the
/// partial trace even when ranks fail.
fn run_trace(args: &Args, compiled: &Compiled) -> ExitCode {
    let dir = trace_dir_of(args);
    if let Err(e) = obs::clean_trace_dir(&dir) {
        eprintln!("acfc: cannot clean `{}`: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut run_error: Option<Error> = None;
    if args.common.transport == TransportKind::Tcp {
        if let Err(e) = run_tcp(args, compiled, Some(&dir)) {
            run_error = Some(e);
        }
    } else {
        let mut cfg = compiled.run_config().overlap(args.common.overlap);
        if let Some(interval) = args.common.telemetry_interval() {
            cfg = cfg.telemetry(autocfd::runtime::TelemetryConfig {
                interval,
                spool_dir: Some(dir.clone()),
                ..Default::default()
            });
        }
        let runs = cfg.run_parallel_traced();
        if let Ok((m, _)) = &runs[0].outcome {
            for line in &m.output {
                println!("{line}");
            }
        }
        for (rank, run) in runs.iter().enumerate() {
            if let Err(e) = obs::write_rank_run(&dir, "inproc", rank, runs.len(), run) {
                eprintln!("acfc: cannot write journal for rank {rank}: {e}");
                return ExitCode::FAILURE;
            }
            if let Err(e) = &run.outcome {
                run_error = Some(Error::Runtime(e.clone()));
            }
        }
    }
    // render whatever the journals captured — also on failure, so a
    // deadlock or crash still yields a partial timeline to debug with
    let merged = match obs::load_merged(&dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("acfc: cannot load trace dir `{}`: {e}", dir.display());
            if let Some(err) = run_error {
                eprintln!("acfc: {err}");
                return exit_with(&err);
            }
            return ExitCode::FAILURE;
        }
    };
    if let Some(w) = obs::skipped_warning(&merged) {
        eprintln!("acfc: {w}");
    }
    let chrome = autocfd::runtime::chrome_trace(&merged);
    if let Err(e) = std::fs::write(dir.join("trace.json"), chrome) {
        eprintln!("acfc: cannot write trace.json: {e}");
        return ExitCode::FAILURE;
    }
    eprint!("{}", obs::render_report(&merged));
    let checks = match obs::cross_validate(compiled, &merged, args.tolerance) {
        Ok(c) => {
            eprint!("{}", obs::render_cross_validation(&c));
            Some(c)
        }
        Err(e) => {
            eprintln!("acfc: cross-validation: {e}");
            None
        }
    };
    eprintln!(
        "acfc: trace written to {} (open trace.json in ui.perfetto.dev)",
        dir.display()
    );
    if let Some(e) = run_error {
        eprintln!("acfc: {e}");
        return exit_with(&e);
    }
    if args.check {
        let failures = check_failures(&merged, checks.as_deref(), args.min_coverage);
        if !failures.is_empty() {
            return check_exit(&failures);
        }
        eprintln!("acfc: trace checks passed");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.mode == Mode::Stats {
        return run_stats(&args);
    }
    if args.mode == Mode::Advise {
        return run_advise(&args);
    }
    if args.mode == Mode::Resume {
        return run_resume(&args);
    }
    if args.mode == Mode::Top {
        return run_top(&args);
    }
    let source = match std::fs::read_to_string(&args.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("acfc: cannot read `{}`: {e}", args.input);
            return ExitCode::FAILURE;
        }
    };
    // `--server ADDR` routes the compile (and run) to a resident
    // daemon: no local pipeline runs at all on this path
    if let Some(addr) = args.server.clone() {
        return run_remote(&args, &source, &addr);
    }
    if args.mode == Mode::RemoteCompile {
        eprintln!(
            "acfc: `acfc compile` needs --server ADDR (plain `acfc INPUT.f` compiles locally)"
        );
        return ExitCode::FAILURE;
    }
    let mut compiled = match compile(&source, &args.common.compile) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("acfc: {e}");
            return exit_with(&Error::Compile(e));
        }
    };
    // `--plan plan.json`: execute against a previously emitted plan
    // artifact instead of the plan this compile just produced
    if let Some(path) = &args.common.plan {
        if let Err(e) = autocfd::planio::substitute_plan_file(&mut compiled, path) {
            eprintln!("acfc: {e}");
            return exit_with(&e);
        }
    }
    if args.mode == Mode::Plan {
        return run_plan(&args, &compiled);
    }
    match args.common.checkpointing() {
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        Ok(Some(_)) if args.common.transport != TransportKind::Tcp => {
            eprintln!("acfc: checkpointing requires --transport tcp (one process per rank)");
            return ExitCode::FAILURE;
        }
        _ => {}
    }

    eprintln!(
        "acfc: partition {} ({} subtasks), {} -> {} synchronizations ({:.1}% reduction)",
        compiled.partition.spec.display(),
        compiled.partition.spec.tasks(),
        compiled.sync_plan.stats.before,
        compiled.sync_plan.stats.after,
        compiled.sync_plan.stats.reduction_pct(),
    );

    if args.analysis {
        eprint!("{}", autocfd::ir::report_program(&compiled.ir));
        // S_LDP: the dependency-pair sets of §4.2
        for (unit, sldp) in &compiled.sync_plan.sldp {
            for pair in &sldp.pairs {
                let arrays: Vec<String> = pair
                    .deps
                    .iter()
                    .map(|(a, d)| format!("{a}{:?}", d.ghost))
                    .collect();
                let kind = if pair.is_self_dependent() {
                    "self-dependent"
                } else if pair.wraps {
                    "wrap-around"
                } else {
                    "forward"
                };
                eprintln!(
                    "S_LDP `{unit}`: {} -> {} ({kind}) deps {}",
                    pair.l_a,
                    pair.l_r,
                    arrays.join(" ")
                );
            }
        }
    }

    if args.report {
        for (k, pt) in compiled.sync_plan.sync_points.iter().enumerate() {
            let arrays: Vec<&str> = pt.deps.keys().map(String::as_str).collect();
            let overlap = if compiled.spmd_plan.overlaps.contains_key(&(k as u32)) {
                ", overlappable"
            } else {
                ""
            };
            eprintln!(
                "  sync {k}: unit `{}`, merged {} region(s), ships {arrays:?}{overlap}",
                pt.unit, pt.merged
            );
        }
        for (unit, pairs) in &compiled.sync_plan.self_pairs {
            for p in pairs {
                eprintln!(
                    "  self-dependent loop {} in `{unit}` (mirror-image/pipeline)",
                    p.l_a
                );
            }
        }
    }

    if let Some(path) = &args.emit {
        let out = compiled.parallel_source();
        if path == "-" {
            print!("{out}");
        } else if let Err(e) = std::fs::write(path, out) {
            eprintln!("acfc: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(n) = args.common.ranks {
        let tasks = compiled.partition.spec.tasks();
        if tasks != n {
            eprintln!("acfc: --ranks {n} conflicts with partition ({tasks} subtasks)");
            return ExitCode::FAILURE;
        }
    }

    if args.mode == Mode::Trace {
        return run_trace(&args, &compiled);
    }

    if args.common.transport == TransportKind::Tcp
        && (args.run || args.common.profile || args.verify)
    {
        // multi-process path: workers execute, verify, and profile;
        // with --elastic a runtime failure triggers shrink-and-resume
        // instead of giving up
        if let Err(e) = run_tcp(&args, &compiled, None) {
            let recovered = if args.elastic {
                elastic_recover(&args, e)
            } else {
                Err(e)
            };
            if let Err(e) = recovered {
                eprintln!("acfc: {e}");
                return exit_with(&e);
            }
        }
    } else if args.verify {
        let tol = if args.verify_exact { 0.0 } else { 1e-12 };
        match compiled.verify_opts(vec![], tol, args.common.overlap) {
            Ok(d) => eprintln!("acfc: verified — max |seq - par| = {d:e}"),
            Err(e) => {
                eprintln!("acfc: VERIFICATION FAILED: {e}");
                return exit_with(&e);
            }
        }
    } else if args.run || args.common.profile {
        // traced even for a plain run: on failure the partial trace
        // still renders, instead of vanishing with the error
        let mut cfg = compiled.run_config().overlap(args.common.overlap);
        if let Some(interval) = args.common.telemetry_interval() {
            // spool into --trace-dir when given, else wire only
            cfg = cfg.telemetry(autocfd::runtime::TelemetryConfig {
                interval,
                spool_dir: args.common.trace_dir.clone().map(PathBuf::from),
                ..Default::default()
            });
        }
        let runs = cfg.run_parallel_traced();
        if let Ok((m, _)) = &runs[0].outcome {
            for line in &m.output {
                println!("{line}");
            }
        }
        if args.common.profile {
            let traces: Vec<_> = runs.iter().map(|r| r.trace.clone()).collect();
            eprint!("{}", autocfd::runtime::render_timeline(&traces, 72));
            let phases: Vec<_> = runs.iter().map(|r| r.phases.clone()).collect();
            let table = autocfd::runtime::fold_traces(&traces, &phases);
            eprint!("{}", autocfd::runtime::render_wire_table(&table));
            for (r, run) in runs.iter().enumerate() {
                let total = table.rank_total(r);
                let elems: usize = run.trace.iter().map(|e| e.elems).sum();
                eprintln!(
                    "rank {r}: {} comm events, {:?} blocked, {elems} f64s moved",
                    total.events,
                    total.comm + total.wait
                );
            }
        }
        let mut failed = None;
        for (r, run) in runs.iter().enumerate() {
            if let Err(e) = &run.outcome {
                eprintln!("acfc: rank {r}: runtime error: {e}");
                failed = Some(Error::Runtime(e.clone()));
            }
        }
        if let Some(e) = failed {
            return exit_with(&e);
        }
    }
    ExitCode::SUCCESS
}
