//! `acfd-worker` — one rank of a multi-process SPMD run.
//!
//! Spawned by `acfc run --transport tcp`, one process per rank. Each
//! worker re-runs the (deterministic) pre-compiler on the same source
//! with the same options, so every process holds an identical
//! [`SpmdPlan`](autocfd::codegen::SpmdPlan) without any plan
//! serialization; the *rank identity* is the only thing negotiated at
//! runtime, via the launcher's rendezvous socket. The worker then
//! executes its rank of the generated program over the TCP transport
//! and, on request, verifies its owned region against a local
//! sequential execution.
//!
//! ```text
//! acfd-worker INPUT.f --connect HOST:PORT [--partition AxB[xC]]
//!             [--procs N] [--distance D] [--no-optimize] [--overlap]
//!             [--timeout-ms N] [--verify] [--verify-exact] [--profile]
//!             [--journal DIR] [--plan plan.json]
//!             [--checkpoint-every N] [--checkpoint-dir DIR]
//!             [--resume-epoch E] [--chaos-abort-after N]
//!             [--telemetry] [--telemetry-ms N]
//! ```
//!
//! With `--journal DIR` the worker appends its rank's JSONL trace
//! journal to `DIR/rank-<r>.jsonl` — *also when the run fails*, so a
//! deadlock or crash still leaves a partial trace to debug with. With
//! `--overlap`, eligible sync points keep their last-axis exchange in
//! flight while the following nest's interior computes.
//!
//! With `--checkpoint-every N --checkpoint-dir DIR` the rank snapshots
//! its full interpreter state every N-th checkpoint-safe sync visit.
//! `--resume-epoch E` restores rank state from `DIR/epoch-E/` — the
//! snapshot is loaded *after* the mesh join assigns this process its
//! rank — and continues bit-exactly; an epoch cut on a *different*
//! rank count is elastically repartitioned onto this mesh first
//! (see [`autocfd::interp::repartition`]). `--plan plan.json`
//! substitutes a
//! previously emitted plan artifact for the one the local compile
//! produced. `--chaos-abort-after N` (fault injection for the chaos
//! tests) aborts the whole process at the N-th checkpoint-safe sync
//! visit, before any journal flush — a deliberate hard crash.
//!
//! Exit status: 0 on success; the launcher aggregates the same distinct
//! failure codes `acfc` uses — 2 compile, 3 runtime/communication,
//! 4 verification (see [`autocfd::Error::exit_code`]).

use autocfd::cli::CommonOpts;
use autocfd::interp::{verify_rank_owned_region, CheckpointOpts, RankResult};
use autocfd::runtime::{fold_traces, Comm, Transport};
use autocfd::runtime_net::{MeshConfig, TcpTransport};
use autocfd::{compile, obs, Error};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    input: String,
    connect: SocketAddr,
    common: CommonOpts,
    verify: bool,
    verify_exact: bool,
    journal: Option<PathBuf>,
    resume_epoch: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut input = None;
    let mut connect = None;
    let mut common = CommonOpts::new();
    let mut verify = false;
    let mut verify_exact = false;
    let mut journal = None;
    let mut resume_epoch = None;
    while let Some(a) = args.next() {
        if common.accept(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "--connect" => {
                let v = args.next().ok_or("--connect needs HOST:PORT")?;
                connect = Some(v.parse().map_err(|_| format!("bad address `{v}`"))?);
            }
            "--verify" => verify = true,
            "--verify-exact" => {
                verify = true;
                verify_exact = true;
            }
            "--journal" => journal = Some(PathBuf::from(args.next().ok_or("--journal needs DIR")?)),
            "--resume-epoch" => {
                let v = args.next().ok_or("--resume-epoch needs a value")?;
                resume_epoch = Some(v.parse().map_err(|_| format!("bad epoch `{v}`"))?);
            }
            "--help" | "-h" => {
                return Err("usage: acfd-worker INPUT.f --connect HOST:PORT \
                            [--procs N | --partition AxB[xC]] [--distance D] \
                            [--no-optimize] [--overlap] [--timeout-ms N] [--verify] \
                            [--verify-exact] [--profile] [--journal DIR] \
                            [--plan plan.json] [--checkpoint-every N] \
                            [--checkpoint-dir DIR] [--resume-epoch E] \
                            [--chaos-abort-after N] [--telemetry] [--telemetry-ms N]"
                    .into())
            }
            other if input.is_none() && !other.starts_with('-') => input = Some(a),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    common.finish();
    if resume_epoch.is_some() && common.checkpoint_dir.is_none() {
        return Err("--resume-epoch needs --checkpoint-dir DIR".into());
    }
    Ok(Args {
        input: input.ok_or("no input file (try --help)")?,
        connect: connect.ok_or("no rendezvous address (--connect HOST:PORT)")?,
        common,
        verify,
        verify_exact,
        journal,
        resume_epoch,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&args.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("acfd-worker: cannot read `{}`: {e}", args.input);
            return ExitCode::FAILURE;
        }
    };
    let mut compiled = match compile(&source, &args.common.compile) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("acfd-worker: {e}");
            return ExitCode::from(Error::Compile(e).exit_code());
        }
    };
    // `--plan plan.json`: substitute the previously emitted plan
    // artifact for the one the local compile produced
    if let Some(path) = &args.common.plan {
        if let Err(e) = autocfd::planio::substitute_plan_file(&mut compiled, path) {
            eprintln!("acfd-worker: {e}");
            return ExitCode::from(e.exit_code());
        }
    }
    let ckpt = match args.common.checkpointing() {
        Ok(resolved) => {
            let chaos = args.common.chaos_abort_after;
            match resolved {
                Some((every, dir)) => Some(CheckpointOpts {
                    every,
                    dir: PathBuf::from(dir),
                    chaos_abort_after: chaos,
                }),
                // chaos injection works without a snapshot directory:
                // visits are counted either way
                None => chaos.map(|n| CheckpointOpts {
                    every: 0,
                    dir: PathBuf::new(),
                    chaos_abort_after: Some(n),
                }),
            }
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let transport = match TcpTransport::join(&MeshConfig::new(args.connect)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("acfd-worker: cannot join mesh at {}: {e}", args.connect);
            return ExitCode::from(Error::Comm(e).exit_code());
        }
    };
    let rank = Transport::rank(&transport);
    let ranks_total = compiled.spmd_plan.ranks() as usize;
    let timeout = args
        .common
        .timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(30));
    let comm = Comm::new(Box::new(transport), timeout, Instant::now());
    // the plan carries the engine/thread selection (local compile or
    // `--plan` artifact), so this rank executes on the same engine as
    // every other process of the mesh
    let mut cfg = compiled.run_config().overlap(args.common.overlap);
    if let Some(c) = ckpt {
        cfg = cfg.checkpoint(c);
    }
    // live telemetry: frames spool next to the journal (when one was
    // requested) and piggyback on the TCP heartbeat framing either way,
    // so `acfc top DIR` can watch the run while it executes
    if let Some(interval) = args.common.telemetry_interval() {
        cfg = cfg.telemetry(autocfd::runtime::TelemetryConfig {
            interval,
            spool_dir: args.journal.clone(),
            ..Default::default()
        });
    }
    // resume is resolved *after* the mesh join assigns this process its
    // rank — workers are interchangeable until then. The epoch stays
    // pinned by the launcher (never re-inferred here): the resumed run
    // writes new epochs into the same directory, so "latest" drifts.
    // When the snapshots' rank count differs from the plan's, the
    // config elastically repartitions the cut onto this mesh.
    if let Some(epoch) = args.resume_epoch {
        let dir = PathBuf::from(args.common.checkpoint_dir.as_deref().unwrap_or(""));
        cfg = cfg.resume_from(dir).resume_epoch(epoch);
    }
    let run = cfg.run_rank_traced(&comm);
    drop(comm); // closes this rank's mesh endpoint

    // a chaos-injected failure simulates a hard crash: abort without
    // flushing the journal, exactly like a killed process would
    if let Err(e) = &run.outcome {
        if e.to_string().contains("chaos-abort") {
            eprintln!("acfd-worker[rank {rank}]: {e}");
            std::process::abort();
        }
    }

    // flush the journal before looking at the outcome: a failed rank's
    // partial trace is exactly what the launcher renders for debugging
    if let Some(dir) = &args.journal {
        if let Err(e) = obs::write_rank_run(dir, "tcp", rank, ranks_total, &run) {
            eprintln!("acfd-worker[rank {rank}]: cannot write journal: {e}");
            return ExitCode::FAILURE;
        }
    }
    if args.common.profile {
        let ws = &run.wire_stats;
        eprintln!(
            "acfd-worker[rank {rank}]: wire {} msg / {} B sent, {} msg / {} B recvd",
            ws.msgs_sent, ws.bytes_sent, ws.msgs_recvd, ws.bytes_recvd
        );
        let table = fold_traces(
            std::slice::from_ref(&run.trace),
            std::slice::from_ref(&run.phases),
        );
        for (row, t) in table.rows.iter().map(|r| (r, r.total())) {
            if t.is_comm() {
                eprintln!(
                    "acfd-worker[rank {rank}]:   {}: {} msg / {} B",
                    row.phase, t.msgs, t.bytes
                );
            }
        }
    }

    let (machine, frame) = match run.outcome {
        Ok(mf) => mf,
        Err(e) => {
            eprintln!("acfd-worker[rank {rank}]: {e}");
            return ExitCode::from(Error::Runtime(e).exit_code());
        }
    };
    if rank == 0 {
        for line in &machine.output {
            println!("{line}");
        }
    }

    if args.verify {
        let rr = RankResult {
            machine,
            frame,
            comm_stats: run.comm_stats,
            wire_stats: run.wire_stats,
            phases: run.phases,
            trace: run.trace,
        };
        let seq = match compiled.run_sequential(vec![]) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("acfd-worker[rank {rank}]: sequential reference run: {e}");
                return ExitCode::from(Error::Runtime(e).exit_code());
            }
        };
        let tol = if args.verify_exact { 0.0 } else { 1e-12 };
        match verify_rank_owned_region(&seq, &rr, rank, &compiled.spmd_plan, tol) {
            Ok(d) => eprintln!("acfd-worker[rank {rank}]: verified — max |seq - par| = {d:e}"),
            Err(e) => {
                eprintln!("acfd-worker[rank {rank}]: VERIFICATION FAILED: {e}");
                return ExitCode::from(Error::Validation(e).exit_code());
            }
        }
    }
    ExitCode::SUCCESS
}
