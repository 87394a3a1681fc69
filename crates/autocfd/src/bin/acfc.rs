//! `acfc` — the Auto-CFD pre-compiler command line.
//!
//! ```text
#![doc = include_str!("acfc-usage.txt")]
//! ```
//!
//! `acfc top DIR` is the live monitor: it polls the telemetry spool
//! files a `--telemetry` run writes next to its journals and redraws a
//! per-rank table in place — current phase, busy time, work over the
//! mesh mean (its maximum is the imbalance `stats` and `advise` print),
//! exposed-communication percentage, checkpoint epoch and lag, and
//! liveness (age of the rank's last frame). It works against a live TCP
//! run and an elastic run mid-shrink (vanished ranks go idle; survivors
//! keep updating, because a recovery launch spools into the same
//! `--trace-dir` as the launch it replaces). `--once --check` exits
//! nonzero when telemetry is unhealthy (no frames, coverage gap), so CI
//! can assert on a live run.
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
//! rank-threads in this process instead of spawning workers.
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
//! workers' exit statuses. Either way a launch is one
//! [`autocfd::cli::CommonOpts`] — what every launch option means is
//! decided there, once, for every subcommand and both transports.
//!
//! Exit codes: 0 success, 1 usage or I/O error, 2 compile failure,
//! 3 runtime/communication failure, 4 validation failure (see
//! [`autocfd::Error::exit_code`]).

use autocfd::advisor;
use autocfd::cli::{retarget, CommonOpts, TransportKind};
use autocfd::grid::PartitionSpec;
use autocfd::obs;
use autocfd::runtime::checkpoint::{self, RunManifest};
use autocfd::runtime_net::Rendezvous;
use autocfd::{Compiled, Error};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The one usage text: `--help` prints it, the module header embeds it.
const USAGE: &str = include_str!("acfc-usage.txt");

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
    /// Mine a trace directory for performance advice.
    Advise,
    /// Live per-rank monitor over the telemetry spools, refreshing in
    /// place.
    Top,
}

struct Args {
    /// Input source file — or the trace/checkpoint directory in
    /// `stats`/`resume` mode.
    input: String,
    /// The launch description: every flag a worker shares.
    common: CommonOpts,
    emit: Option<String>,
    report: bool,
    analysis: bool,
    run: bool,
    mode: Mode,
    tolerance: f64,
    min_coverage: f64,
    check: bool,
    /// `stats` only: source file for the predicted-vs-measured table.
    stats_input: Option<String>,
    /// `plan` only: output path for the plan JSON. `advise` reuses it
    /// for `advice.json`.
    plan_out: Option<String>,
    /// `run` only: auto-shrink and resume on worker failure.
    elastic: bool,
    /// `advise` only: resume the checkpointed run onto the advised
    /// partition.
    apply: bool,
    /// `top --once`: render a single frame and exit (CI-scriptable).
    once: bool,
    /// `top --interval MS`: refresh cadence.
    top_interval: Option<u64>,
}

/// `Ok(None)`: `--help` was asked for and answered.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1).peekable();
    let mut input = None;
    let mut a = Args {
        input: String::new(),
        common: CommonOpts::new(),
        emit: None,
        report: false,
        analysis: false,
        run: false,
        mode: Mode::Compile,
        tolerance: 0.05,
        min_coverage: 0.9,
        check: false,
        stats_input: None,
        plan_out: None,
        elastic: false,
        apply: false,
        once: false,
        top_interval: None,
    };
    // `acfc run INPUT.f ...` is sugar for `acfc INPUT.f --run ...`;
    // `trace` and `stats` select the observability modes, `plan` emits
    // the plan artifact, `resume` relaunches a checkpointed run
    let sub = match args.peek().map(String::as_str) {
        Some("run") => Some(Mode::Compile),
        Some("trace") => Some(Mode::Trace),
        Some("stats") => Some(Mode::Stats),
        Some("plan") => Some(Mode::Plan),
        Some("resume") => Some(Mode::Resume),
        Some("advise") => Some(Mode::Advise),
        Some("top") => Some(Mode::Top),
        _ => None,
    };
    if let Some(mode) = sub {
        a.run = args.next().as_deref() == Some("run");
        a.mode = mode;
    }
    while let Some(arg) = args.next() {
        let mut value = |needs: &str| args.next().ok_or(format!("{arg} needs {needs}"));
        let num = |v: String, what: &str| v.parse().map_err(|_| format!("bad {what} `{v}`"));
        match arg.as_str() {
            "--emit" => a.emit = Some(value("a path or -")?),
            "--tolerance" => a.tolerance = num(value("a value like 0.05")?, "tolerance")?,
            "--min-coverage" => a.min_coverage = num(value("a value like 0.9")?, "coverage")?,
            "--check" => a.check = true,
            "--input" => a.stats_input = Some(value("a path")?),
            "--elastic" => a.elastic = true,
            "--apply" => a.apply = true,
            "--once" => a.once = true,
            "--interval" => {
                let v = value("milliseconds")?;
                a.top_interval = Some(v.parse().map_err(|_| format!("bad interval `{v}`"))?);
            }
            "--report" => a.report = true,
            "--analysis" => a.analysis = true,
            "--run" => a.run = true,
            "-o" | "--output" => a.plan_out = Some(value("a path or -")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            // the launcher→worker half of the description is not the
            // user's to set
            "--journal" | "--resume-epoch" | "--connect" => {
                return Err(format!("unknown argument `{arg}` (try --help)"))
            }
            _ if a.common.accept(&arg, &mut args)? => {}
            other if input.is_none() && !other.starts_with('-') => input = Some(arg),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    a.common.finish()?;
    a.input = input.ok_or("no input file (try --help)")?;
    Ok(Some(a))
}

fn runtime_err(msg: String) -> Error {
    Error::Runtime(autocfd::interp::RunError::new(msg))
}

fn read_file(path: &str) -> Result<String, Error> {
    std::fs::read_to_string(path).map_err(|e| Error::Usage(format!("cannot read `{path}`: {e}")))
}

/// Write `text` to `path`, or to stdout when `path` is `-`.
fn write_out(path: &str, text: &str) -> Result<(), Error> {
    if path == "-" {
        print!("{text}");
        return Ok(());
    }
    std::fs::write(path, text).map_err(|e| Error::Usage(format!("cannot write `{path}`: {e}")))
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
/// `argv(i, rendezvous)` supplies each spawned worker's argument list
/// (workers are numbered by spawn order — *ranks* are assigned by
/// arrival at the rendezvous). A worker exiting with the
/// validation code makes the whole launch a validation failure;
/// anything else — including a chaos-aborted worker — is a runtime
/// failure.
fn launch_workers(
    n: usize,
    argv: impl Fn(usize, std::net::SocketAddr) -> Vec<String>,
) -> Result<(), Error> {
    let worker = worker_binary()?;
    let rendezvous = Rendezvous::bind(n, Duration::from_secs(30))
        .map_err(|e| runtime_err(format!("cannot bind rendezvous socket: {e}")))?;
    let addr = rendezvous.local_addr();
    let server = rendezvous.spawn();
    eprintln!("acfc: rendezvous on {addr}, spawning {n} worker process(es)");

    let mut children = Vec::with_capacity(n);
    for i in 0..n {
        let mut cmd = std::process::Command::new(&worker);
        cmd.args(argv(i, addr));
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

/// Launch the mesh `d` describes: rank-threads in this process, or one
/// `acfd-worker` per rank handed `d` itself as its argument list. A
/// fresh checkpointed launch first records how to relaunch itself; a
/// `--chaos-abort-after` request goes to exactly one spawned worker.
fn launch(d: &CommonOpts, input: &str, compiled: &Compiled) -> Result<(), Error> {
    if d.transport == TransportKind::Inproc {
        return d.run_mesh(compiled);
    }
    if d.resume_epoch.is_none() && d.checkpointing().is_some() {
        let source = std::fs::read_to_string(input)
            .map_err(|e| runtime_err(format!("cannot re-read `{input}`: {e}")))?;
        d.write_manifest(compiled, source)?;
    }
    // every worker re-compiles with the *resolved* partition so all
    // processes hold the identical plan, however the shape was chosen
    let mut d = d.clone();
    d.compile.partition = Some(compiled.partition.spec.parts.clone());
    let chaos = d.chaos_abort_after.take();
    launch_workers(compiled.spmd_plan.ranks() as usize, |i, rendezvous| {
        let worker = CommonOpts {
            connect: Some(rendezvous),
            chaos_abort_after: chaos.filter(|_| i == 0),
            ..d.clone()
        };
        std::iter::once(input.to_string())
            .chain(worker.worker_args())
            .collect()
    })
}

/// Launch `d`, the overlay of a checkpoint directory's manifest, from
/// the copy of the embedded source [`retarget`] left in `dir`.
fn relaunch(d: &CommonOpts, dir: &Path, compiled: &Compiled) -> Result<(), Error> {
    launch(d, &dir.join("source.f").to_string_lossy(), compiled)
}

/// The best partition of the manifest's recorded grid for `ranks` ranks;
/// `None` when the manifest records no grid to partition.
fn partition_for(manifest: &RunManifest, ranks: u32) -> Option<PartitionSpec> {
    let shape = autocfd::grid::GridShape {
        extents: manifest.grid.clone(),
    };
    let distance = manifest.distance as u64;
    (!shape.extents.is_empty()).then(|| {
        autocfd::grid::choose_partition(&shape, ranks, distance)
            .0
            .spec
    })
}

/// `acfc resume DIR`: reload the relaunch manifest, find the newest
/// epoch with a complete consistent snapshot set — torn or partial
/// epochs are skipped — and relaunch the mesh from it. `--ranks M` /
/// `--partition PxQ` resume elastically onto a different geometry: the
/// epoch's N-rank snapshots are regathered and re-scattered by the
/// resuming ranks.
fn run_resume(args: &Args) -> Result<(), Error> {
    let dir = Path::new(&args.input);
    let cli = &args.common;
    let mut manifest = checkpoint::load_manifest(dir).map_err(Error::Usage)?;
    // Target geometry: explicit --partition beats --ranks (auto-chosen
    // over the manifest's recorded grid) beats the recorded partition.
    let parts: Vec<u32> = if let Some(p) = &cli.compile.partition {
        p.clone()
    } else if let Some(m) = cli.ranks.filter(|&m| m as usize != manifest.ranks) {
        let spec = partition_for(&manifest, m).ok_or_else(|| {
            Error::Validation(format!(
                "manifest records no grid extents; pass an explicit --partition to \
                 resume on {m} ranks"
            ))
        })?;
        spec.parts
    } else {
        manifest.parts.clone()
    };
    let n: u32 = parts.iter().product();
    if let Some(m) = cli.ranks.filter(|&m| m != n) {
        return Err(Error::Usage(format!(
            "--ranks {m} conflicts with partition ({n} subtasks)"
        )));
    }
    // Execution-knob overrides: a non-default CLI flag beats the
    // manifest; everything else resumes exactly as launched.
    if cli.compile.threads != 1 {
        manifest.threads = cli.compile.threads.into();
    }
    if let Some(ms) = cli.timeout_ms {
        manifest.timeout_ms = ms;
    }
    manifest.overlap |= cli.overlap;
    let (old_parts, old_ranks) = (manifest.parts.clone(), manifest.ranks);
    let (manifest, epoch, compiled) = retarget(dir, manifest, parts)?;
    if (&old_parts, old_ranks) != (&manifest.parts, manifest.ranks) {
        eprintln!(
            "acfc: elastic resume: repartitioning {} ({old_ranks} rank(s)) -> {} ({n} rank(s))",
            PartitionSpec::new(&old_parts).display(),
            compiled.partition.spec.display(),
        );
    }
    eprintln!(
        "acfc: resuming from checkpoint epoch {epoch} in {}",
        dir.display()
    );
    let mut d = cli.overlay(dir, &manifest, epoch);
    // `--trace-dir` journals the resumed run, so `acfc stats --check`
    // can validate a post-recovery execution like any other
    if let Some(t) = &d.trace_dir {
        obs::clean_trace_dir(Path::new(t))
            .map_err(|e| Error::Usage(format!("cannot clean `{t}`: {e}")))?;
        d.journal = Some(t.clone());
    }
    relaunch(&d, dir, &compiled)
}

/// `acfc run --elastic`: after a runtime-class failure of a
/// checkpointed tcp run (a chaos abort, a killed worker, a hang
/// declared dead by the heartbeat liveness check), shrink the mesh by
/// one rank, re-partition the recorded grid for the survivors, and
/// resume from the newest consistent epoch — repeating until a relaunch
/// succeeds or one rank remains.
fn elastic_recover(args: &Args, mut err: Error) -> Result<(), Error> {
    let Some((_, ckdir)) = args.common.checkpointing() else {
        return Err(err);
    };
    let dir = Path::new(ckdir);
    // only failed peers are recoverable
    while matches!(err, Error::Runtime(_) | Error::Comm(_)) {
        let Ok(manifest) = checkpoint::load_manifest(dir) else {
            break;
        };
        let (was, survivors) = (manifest.ranks, manifest.ranks.saturating_sub(1));
        if survivors == 0 {
            break;
        }
        let Some(spec) = partition_for(&manifest, survivors as u32) else {
            break;
        };
        // each epoch is judged in its own geometry — the cut the
        // snapshots were actually written under
        let Ok((manifest, epoch, compiled)) = retarget(dir, manifest, spec.parts.clone()) else {
            break;
        };
        eprintln!(
            "acfc: elastic: mesh failed ({err}); shrinking {was} -> {survivors} rank(s) \
             (partition {}), resuming epoch {epoch}",
            spec.display(),
        );
        let d = args.common.overlay(dir, &manifest, epoch);
        match relaunch(&d, dir, &compiled) {
            Ok(()) => {
                eprintln!("acfc: elastic: recovered on {survivors} rank(s)");
                return Ok(());
            }
            Err(e) => err = e, // a failed peer again: shrink further
        }
    }
    Err(err)
}

/// Emit a plan artifact: stdout when `out` is `-` or absent.
fn write_plan(out: Option<&str>, text: &str) -> Result<(), Error> {
    match out {
        None | Some("-") => println!("{text}"),
        Some(path) => {
            write_out(path, text)?;
            eprintln!("acfc: plan written to {path}");
        }
    }
    Ok(())
}

/// The directory `trace` mode journals into: `--trace-dir`, or
/// `<INPUT stem>.trace/` next to the source.
fn trace_dir_of(args: &Args) -> String {
    args.common.trace_dir.clone().unwrap_or_else(|| {
        let stem = Path::new(&args.input)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("acfc");
        format!("{stem}.trace")
    })
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

/// `--check`: report the failures and turn them into the validation
/// exit.
fn check(args: &Args, what: &str, failures: Vec<String>) -> Result<(), Error> {
    if !args.check {
        return Ok(());
    }
    for f in &failures {
        eprintln!("acfc: CHECK FAILED: {f}");
    }
    if !failures.is_empty() {
        return Err(Error::Validation(format!("{what} checks failed")));
    }
    eprintln!("acfc: {what} checks passed");
    Ok(())
}

/// The tail of every `trace`: export `trace.json` and render the report
/// from the journals in `dir` with the predicted-vs-measured table for
/// `compiled`, then the run's `outcome`, then `--check`. Whatever the journals captured is
/// rendered also on failure, so a deadlock or crash still yields a
/// partial timeline to debug with.
fn trace_report(
    args: &Args,
    dir: &Path,
    compiled: &Compiled,
    outcome: Result<(), Error>,
) -> Result<(), Error> {
    let merged = match obs::load_merged(dir) {
        Ok(m) => m,
        Err(e) => {
            let load = format!("cannot load trace dir `{}`: {e}", dir.display());
            let Err(run) = outcome else {
                return Err(Error::Usage(load));
            };
            eprintln!("acfc: {load}");
            return Err(run);
        }
    };
    if let Some(w) = obs::skipped_warning(&merged) {
        eprintln!("acfc: {w}");
    }
    let chrome = autocfd::runtime::chrome_trace(&merged);
    std::fs::write(dir.join("trace.json"), chrome)
        .map_err(|e| Error::Usage(format!("cannot write trace.json: {e}")))?;
    eprint!("{}", obs::render_report(&merged));
    let checks = obs::cross_validate(compiled, &merged, args.tolerance)
        .inspect(|checks| eprint!("{}", obs::render_cross_validation(checks)))
        .inspect_err(|e| eprintln!("acfc: cross-validation: {e}"))
        .ok();
    eprintln!(
        "acfc: trace written to {} (open trace.json in ui.perfetto.dev)",
        dir.display()
    );
    outcome?;
    let failures = check_failures(&merged, checks.as_deref(), args.min_coverage);
    check(args, "trace", failures)
}

/// Compile `--input` for the forecast-backed halves of `stats` and
/// `advise`.
fn compile_input(args: &Args) -> Result<Option<Compiled>, Error> {
    let Some(path) = &args.stats_input else {
        return Ok(None);
    };
    Ok(Some(autocfd::compile(
        &read_file(path)?,
        &args.common.compile,
    )?))
}

/// `acfc stats DIR`: re-render a trace directory; with `--input`, also
/// cross-validate against the forecast for that source.
fn run_stats(args: &Args) -> Result<(), Error> {
    let dir = Path::new(&args.input);
    let merged = load_trace_dir(dir)?;
    eprint!("{}", obs::render_report(&merged));
    if let Some(w) = obs::skipped_warning(&merged) {
        eprintln!("acfc: {w}");
    }
    // telemetry health: a `--telemetry` run leaves spool files next to
    // the journals — render the per-rank gap verdicts with them
    let telemetry = obs::scan_telemetry(dir);
    if !telemetry.is_empty() {
        eprintln!("telemetry health ({} rank spool(s)):", telemetry.len());
        eprint!("{}", obs::render_telemetry_health(&telemetry));
    }
    let mut checks = None;
    if let Some(compiled) = compile_input(args)? {
        let c = obs::cross_validate(&compiled, &merged, args.tolerance)
            .map_err(|e| Error::Usage(format!("cross-validation: {e}")))?;
        eprint!("{}", obs::render_cross_validation(&c));
        checks = Some(c);
    }
    let mut failures = check_failures(&merged, checks.as_deref(), args.min_coverage);
    failures.extend(obs::telemetry_failures(&telemetry));
    check(args, "trace", failures)
}

fn load_trace_dir(dir: &Path) -> Result<autocfd::runtime::MergedTrace, Error> {
    obs::load_merged(dir)
        .map_err(|e| Error::Usage(format!("cannot load trace dir `{}`: {e}", dir.display())))
}

/// `acfc advise DIR`: mine a trace directory for load imbalance and
/// exposed communication; with `--input`, also compute the forecast
/// divergence and search candidate partitions through `cluster-sim`.
/// Writes the schema-versioned `advice.json` next to the journals (or
/// to `-o`).
fn run_advise(args: &Args) -> Result<(), Error> {
    let dir = Path::new(&args.input);
    let merged = load_trace_dir(dir)?;
    if let Some(w) = obs::skipped_warning(&merged) {
        eprintln!("acfc: {w}");
    }
    let mut advice = advisor::Advice {
        diagnosis: advisor::diagnose(&merged),
        divergence: None,
        recommendation: None,
        tolerance: args.tolerance,
    };
    if let Some(compiled) = compile_input(args)? {
        if compiled.spmd_plan.ranks() as usize != advice.diagnosis.ranks {
            return Err(Error::Validation(format!(
                "journal has {} ranks but `{}` compiles to {} (pass the partition the \
                 trace ran on)",
                advice.diagnosis.ranks,
                args.stats_input.as_deref().unwrap_or_default(),
                compiled.spmd_plan.ranks()
            )));
        }
        let fc = autocfd::interp::forecast(&compiled.parallel_file, &compiled.spmd_plan)
            .map_err(|e| Error::Usage(format!("forecast: {e}")))?;
        let metrics = autocfd::runtime::phase_metrics(&merged);
        advice.divergence = Some(advisor::divergence(
            &fc,
            &metrics,
            obs::frame_header_bytes(&merged.transport),
        ));
        let rec = advisor::search(
            &advice.diagnosis,
            &compiled.partition.shape,
            &compiled.partition.spec,
            &advisor::SearchConfig::default(),
        )
        .map_err(|e| Error::Usage(format!("partition search: {e}")))?;
        advice.recommendation = Some(rec);
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
            let default = dir.join("advice.json").to_string_lossy().into_owned();
            let path = out.unwrap_or(&default);
            write_out(path, &json)?;
            eprintln!("acfc: advice written to {path}");
        }
    }
    if args.apply {
        return apply_advice(args, &advice);
    }
    Ok(())
}

/// `acfc advise --apply`: retarget the checkpointed run to the
/// advisor's top-ranked partition and elastically resume it from the
/// newest consistent epoch — the trace-driven closing of the loop:
/// measure, diagnose, repartition, continue.
fn apply_advice(args: &Args, advice: &advisor::Advice) -> Result<(), Error> {
    let rec = advice.recommendation.as_ref().ok_or_else(|| {
        Error::Usage("--apply needs a partition search (pass --input INPUT.f)".into())
    })?;
    let Some((_, ckdir)) = args.common.checkpointing() else {
        return Err(Error::Usage(
            "--apply needs --checkpoint-dir DIR (the checkpointed run to resume)".into(),
        ));
    };
    let dir = Path::new(ckdir);
    let manifest = checkpoint::load_manifest(dir).map_err(Error::Usage)?;
    let best = rec.best();
    let best_disp = PartitionSpec::new(&best.parts).display();
    if best.parts == manifest.parts {
        eprintln!("acfc: advised partition {best_disp} is already in use; nothing to apply");
        return Ok(());
    }
    let (manifest, epoch, compiled) = retarget(dir, manifest, best.parts.clone())?;
    eprintln!(
        "acfc: applying advised partition {best_disp}: resuming epoch {epoch} on \
         {} rank(s) (predicted wall {:+.1}%)",
        manifest.ranks, best.wall_delta_pct
    );
    let mut d = args.common.overlay(dir, &manifest, epoch);
    // the checkpointed run was a worker mesh; it is relaunched as one
    d.transport = TransportKind::Tcp;
    relaunch(&d, dir, &compiled)
}

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
    let mut out = format!(
        "acfc top — {} | {} rank(s), engine {}\n",
        dir.display(),
        rows.len(),
        rows[0].latest.engine,
    );
    out.push_str(&format!(
        "{:>4}  {:<12}  {:>9}  {:>7}  {:>7}  {:>5}  {:>4}  {}\n",
        "rank", "phase", "busy", "imbal", "expos", "ckpt", "lag", "last frame"
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
            "{:>4}  {:<12}  {:>7}ms  {:>7}  {:>7}  {:>5}  {:>4}  {}\n",
            r.rank,
            r.latest.phase,
            r.latest.busy_us() / 1_000,
            imbal,
            exposed,
            r.latest.checkpoint_epoch,
            max_epoch - r.latest.checkpoint_epoch,
            liveness,
        ));
    }
    let failures = obs::telemetry_failures(&rows);
    (out, failures)
}

/// `acfc top`: redraw the live per-rank table every `--interval` until
/// interrupted; `--once` renders a single frame, and with `--check`
/// exits nonzero when the telemetry plane is unhealthy.
fn run_top(args: &Args) -> Result<(), Error> {
    let interval = Duration::from_millis(args.top_interval.unwrap_or(500));
    loop {
        let (screen, failures) = render_top_dir(Path::new(&args.input));
        if !args.once {
            // clear screen + home: redraw the table in place
            print!("\x1b[2J\x1b[H");
        }
        print!("{screen}");
        let _ = std::io::stdout().flush();
        if args.once {
            if !args.check || failures.is_empty() {
                return Ok(());
            }
            return check(args, "telemetry", failures);
        }
        std::thread::sleep(interval);
    }
}

/// `acfc trace INPUT.f`: run with journaling, export `trace.json`, and
/// render the report plus the predicted-vs-measured table.
fn run_trace(args: &Args, compiled: &Compiled) -> Result<(), Error> {
    let dir = trace_dir_of(args);
    obs::clean_trace_dir(Path::new(&dir))
        .map_err(|e| Error::Usage(format!("cannot clean `{dir}`: {e}")))?;
    let d = CommonOpts {
        journal: Some(dir.clone()),
        ..args.common.clone()
    };
    let outcome = launch(&d, &args.input, compiled);
    trace_report(args, Path::new(&dir), compiled, outcome)
}

/// `--analysis` / `--report`: what the pre-compiler found and decided.
fn print_reports(args: &Args, compiled: &Compiled) {
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
}

fn run() -> Result<(), Error> {
    let Some(args) = parse_args().map_err(Error::Usage)? else {
        return Ok(());
    };
    match args.mode {
        Mode::Stats => return run_stats(&args),
        Mode::Advise => return run_advise(&args),
        Mode::Resume => return run_resume(&args),
        Mode::Top => return run_top(&args),
        _ => {}
    }
    let source = read_file(&args.input)?;
    let d = &args.common;
    let compiled = d.build(&source)?;
    if args.mode == Mode::Plan {
        let text = autocfd::planio::plan_to_json(&compiled.spmd_plan);
        return write_plan(args.plan_out.as_deref(), &text);
    }
    if d.checkpointing().is_some() && d.transport != TransportKind::Tcp {
        return Err(Error::Usage(
            "checkpointing requires --transport tcp (one process per rank)".into(),
        ));
    }

    eprintln!(
        "acfc: partition {} ({} subtasks), {} -> {} synchronizations ({:.1}% reduction)",
        compiled.partition.spec.display(),
        compiled.partition.spec.tasks(),
        compiled.sync_plan.stats.before,
        compiled.sync_plan.stats.after,
        compiled.sync_plan.stats.reduction_pct(),
    );
    print_reports(&args, &compiled);
    if let Some(path) = &args.emit {
        write_out(path, &compiled.parallel_source())?;
    }
    let tasks = compiled.partition.spec.tasks();
    if let Some(n) = d.ranks.filter(|&n| n != tasks) {
        return Err(Error::Usage(format!(
            "--ranks {n} conflicts with partition ({tasks} subtasks)"
        )));
    }

    if args.mode == Mode::Trace {
        return run_trace(&args, &compiled);
    }
    if !(args.run || d.profile || d.verify.is_some()) {
        return Ok(());
    }
    // with --elastic a runtime failure triggers shrink-and-resume
    // instead of giving up
    match launch(d, &args.input, &compiled) {
        Err(e) if args.elastic => elastic_recover(&args, e),
        outcome => outcome,
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("acfc: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
