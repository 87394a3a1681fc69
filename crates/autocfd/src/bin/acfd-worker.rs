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
#![doc = include_str!("acfd-worker-usage.txt")]
//! ```
//!
//! The argument list is the launcher→worker protocol: `acfc` encodes
//! its launch description with [`CommonOpts::worker_args`] and this
//! binary parses the same description back with [`CommonOpts::accept`]
//! — no flag is read anywhere else, so none can mean something
//! different here.
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
use autocfd::runtime::Transport;
use autocfd::runtime_net::{MeshConfig, TcpTransport};
use autocfd::Error;
use std::process::ExitCode;

/// The one usage text: `--help` prints it, the module header embeds it.
const USAGE: &str = include_str!("acfd-worker-usage.txt");

/// The source path and the launch description; `Ok(None)`: `--help`
/// was asked for and answered.
fn parse_args() -> Result<Option<(String, CommonOpts)>, String> {
    let mut args = std::env::args().skip(1);
    let mut input = None;
    let mut opts = CommonOpts::new();
    while let Some(a) = args.next() {
        if opts.accept(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other if input.is_none() && !other.starts_with('-') => input = Some(a),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    opts.finish()?;
    Ok(Some((input.ok_or("no input file (try --help)")?, opts)))
}

/// Everything up to the mesh join reports as `acfd-worker`; from then
/// on `who` names the rank this process was assigned.
fn run(who: &mut String) -> Result<(), Error> {
    let Some((input, opts)) = parse_args().map_err(Error::Usage)? else {
        return Ok(());
    };
    let connect = opts
        .connect
        .ok_or_else(|| Error::Usage("no rendezvous address (--connect HOST:PORT)".into()))?;
    let source = std::fs::read_to_string(&input)
        .map_err(|e| Error::Usage(format!("cannot read `{input}`: {e}")))?;
    let compiled = opts.build(&source)?;
    let transport = TcpTransport::join(&MeshConfig::new(connect))
        .inspect_err(|_| who.push_str(&format!(": cannot join mesh at {connect}")))?;
    *who = format!("acfd-worker[rank {}]", Transport::rank(&transport));
    opts.run_rank(&compiled, Box::new(transport))
}

fn main() -> ExitCode {
    let mut who = "acfd-worker".to_string();
    match run(&mut who) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{who}: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
