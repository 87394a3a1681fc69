//! `acfd-compile` — the resident compile service.
//!
//! ```text
//! acfd-compile serve [--addr HOST:PORT] [--cache-dir DIR] [--capacity N]
//!                    [--journal DIR] [--addr-file PATH]
//! acfd-compile hash INPUT.f [--partition AxB[xC]] [--distance D] [--no-optimize]
//!                    [--engine tree|kernel] [--threads N]
//! acfd-compile stats --server HOST:PORT
//! ```
//!
//! `serve` binds the daemon (default `127.0.0.1:7407`, `:0` picks a
//! free port) and serves `acfc --server` clients: compiles are cached
//! content-addressed by (canonicalized source × partition × distance ×
//! optimization × engine × threads × plan-schema version), identical
//! concurrent requests
//! coalesce onto one pipeline run, and the bounded LRU persists under
//! `--cache-dir` across restarts. `--addr-file` writes the bound
//! address to a file once listening — how scripts find a `:0` port.
//! With `--journal DIR` the daemon keeps a rank-0 request journal there
//! in the standard JSONL schema, so `acfc stats DIR` renders service
//! metrics with the usual tooling.
//!
//! `hash` prints the cache digest a compile of INPUT.f would be filed
//! under — stable across processes and hosts, so two invocations
//! anywhere agree. `stats` asks a running daemon for its counters
//! (cache hit rate, queue depth, compile latency percentiles).
//!
//! Exit codes: 0 success, 1 usage or I/O error, 2 compile failure,
//! 3 service failure.

use autocfd::cli::CommonOpts;
use autocfd::codegen::PlanKey;
use autocfd::compile_service::{Client, ErrorClass, Request, Service, ServiceConfig, ServiceError};
use autocfd::serve::PipelineBackend;
use serde::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: acfd-compile serve [--addr HOST:PORT] [--cache-dir DIR] \
                     [--capacity N] [--journal DIR] [--addr-file PATH]\n\
              or:    acfd-compile hash INPUT.f [--partition AxB[xC]] [--distance D] \
                     [--no-optimize]\n\
              or:    acfd-compile stats --server HOST:PORT";

fn service_exit(e: &ServiceError) -> ExitCode {
    eprintln!("acfd-compile: {e}");
    ExitCode::from(match e.class {
        ErrorClass::BadRequest => 1,
        ErrorClass::Compile => 2,
        ErrorClass::Internal => 3,
    })
}

/// `serve`: bind, announce, and block in the accept loop.
fn cmd_serve(mut args: std::env::Args) -> ExitCode {
    let mut addr = "127.0.0.1:7407".to_string();
    let mut config = ServiceConfig {
        capacity: 64,
        cache_dir: None,
        journal_dir: None,
    };
    let mut addr_file: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{a} needs {what}"));
        let parsed = match a.as_str() {
            "--addr" => value("HOST:PORT").map(|v| addr = v),
            "--cache-dir" => value("DIR").map(|v| config.cache_dir = Some(PathBuf::from(v))),
            "--journal" => value("DIR").map(|v| config.journal_dir = Some(PathBuf::from(v))),
            "--addr-file" => value("PATH").map(|v| addr_file = Some(PathBuf::from(v))),
            "--capacity" => value("N").and_then(|v| {
                config.capacity = v.parse().map_err(|_| format!("bad capacity `{v}`"))?;
                Ok(())
            }),
            _ => Err(format!("unknown argument `{a}`\n{USAGE}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let service = match Service::bind(&addr, Box::new(PipelineBackend::new()), config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("acfd-compile: cannot bind `{addr}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = match service.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acfd-compile: cannot resolve bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &addr_file {
        if let Err(e) = std::fs::write(path, format!("{bound}\n")) {
            eprintln!("acfd-compile: cannot write `{}`: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "acfd-compile: serving on {bound} (cache capacity {}, {})",
        config.capacity,
        match &config.cache_dir {
            Some(d) => format!("persisted in {}", d.display()),
            None => "in-memory".into(),
        }
    );
    service.serve();
    ExitCode::SUCCESS
}

/// `hash`: print the content-addressed cache digest for a compile,
/// without compiling anything.
fn cmd_hash(mut args: std::env::Args) -> ExitCode {
    let mut input = None;
    let mut common = CommonOpts::new();
    while let Some(a) = args.next() {
        match common.accept(&a, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        if input.is_none() && !a.starts_with('-') {
            input = Some(a);
        } else {
            eprintln!("unknown argument `{a}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let Some(input) = input else {
        eprintln!("no input file\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("acfd-compile: cannot read `{input}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parts: Vec<usize> = common
        .compile
        .partition
        .as_ref()
        .map(|p| p.iter().map(|&x| x as usize).collect())
        .unwrap_or_default();
    let key = PlanKey::new(
        &source,
        &parts,
        common.compile.distance.map(|d| d as usize),
        common.compile.optimize,
        common.compile.engine,
        common.compile.threads,
    );
    println!("{}", key.digest());
    ExitCode::SUCCESS
}

/// `stats`: one `Stats` round-trip, counters printed one per line.
fn cmd_stats(mut args: std::env::Args) -> ExitCode {
    let mut server = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--server" => match args.next() {
                Some(v) => server = Some(v),
                None => {
                    eprintln!("--server needs HOST:PORT");
                    return ExitCode::FAILURE;
                }
            },
            _ => {
                eprintln!("unknown argument `{a}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(server) = server else {
        eprintln!("stats needs --server HOST:PORT\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let resp =
        Client::connect(server.as_str()).and_then(|mut c| c.request(&Request::Stats, &mut |_| {}));
    match resp {
        Err(e) => service_exit(&e),
        Ok(Value::Obj(fields)) => {
            for (k, v) in fields.iter().filter(|(k, _)| k != "ok" && k != "req") {
                println!("{k}: {v}");
            }
            ExitCode::SUCCESS
        }
        Ok(other) => {
            eprintln!("acfd-compile: unexpected stats response: {other}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    args.next(); // argv[0]
    match args.next().as_deref() {
        Some("serve") => cmd_serve(args),
        Some("hash") => cmd_hash(args),
        Some("stats") => cmd_stats(args),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
