//! `acfd_bench`: the repository's benchmark. Four workloads, seven
//! end-to-end metrics, and per-crate layer metrics from a traced run;
//! see `acfd_bench/README.md` for what each is and why.
//!
//! ```text
//! acfd_bench --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out FILE]
//! acfd_bench --all           [--seed S] [--seconds N]               [--quick] [--out FILE]
//! acfd_bench compare A.json B.json
//! ```
//!
//! `--workload` runs one workload in this process and prints, as the
//! last line of stdout, the one-line result the benchmark driver reads
//! (`--trace 0`: the end-to-end metrics; `--trace 1`: the per-layer
//! metrics). `--all` runs every workload one after another, each in two
//! fresh processes of this binary (untraced, then traced) so that
//! `peak_rss_mb` is per workload and nothing runs beside a timed run,
//! and prints one document. There are no environment variables and no
//! other knobs.

mod check;
mod compare;
mod host;
mod layers;
mod metrics;
mod sizing;
mod stats;
mod workload;

use metrics::{end_to_end_table, per_layer_table, NOT_MEASURED};
use serde::json::{self, Value};
use sizing::{DEFAULT_SEED, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage:
  acfd_bench --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out FILE]
  acfd_bench --all [--seed S] [--seconds N] [--quick] [--out FILE]
  acfd_bench compare A.json B.json";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: 16,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".into());
    }
    Ok(args)
}

/// The document around a list of workload results.
fn document(args: &Args, workloads: Vec<Value>) -> Value {
    Value::obj(vec![
        ("bench", Value::Str("acfd_bench".into())),
        ("schema", Value::Int(1)),
        ("quick", Value::Bool(args.quick)),
        ("seed", Value::Int(args.seed.into())),
        ("seconds", Value::Int(args.seconds.into())),
        ("host", host::fingerprint()),
        ("workloads", Value::Arr(workloads)),
        (
            "not_measured",
            Value::Arr(
                NOT_MEASURED
                    .iter()
                    .map(|s| Value::Str((*s).into()))
                    .collect(),
            ),
        ),
    ])
}

fn write_out(path: &str, doc: &Value) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("cannot write `{path}`: {e}"))
}

fn run_workload(args: &Args, name: &str, process_start: Instant) -> Result<(), String> {
    let w = sizing::workload(name, args.seed, args.quick).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })?;
    let opts = workload::Options {
        seconds: args.seconds as f64,
        trace: args.trace,
        quick: args.quick,
    };
    // With fewer cores than ranks the wall-clock numbers mean nothing;
    // they are still printed (the driver's contract wants every metric)
    // but the document says so and `compare` skips them.
    let oversubscribed = host::nproc() < 2;
    if oversubscribed {
        eprintln!("acfd_bench: fewer than 2 cores: wall-clock metrics are oversubscribed");
    }
    let outcome = workload::run(&w, &opts, process_start)?;

    let why = WORKLOADS.iter().find(|x| x.0 == w.name).map_or("", |x| x.1);
    let mut fields = vec![
        ("name", Value::Str(w.name.into())),
        ("why", Value::Str(why.into())),
        ("config", outcome.config),
        ("oversubscribed", Value::Bool(oversubscribed)),
        ("attempted", Value::Int(outcome.tally.attempted.into())),
        ("failed", Value::Int(outcome.tally.failed.into())),
        ("fail_ratio", Value::Float(outcome.tally.fail_ratio())),
        (
            "end_to_end",
            outcome.metrics.render(end_to_end_table(), true),
        ),
    ];
    if args.trace {
        fields.push((
            "per_layer",
            outcome.metrics.render(per_layer_table(), false),
        ));
    }
    if let Some(path) = &args.out {
        write_out(path, &document(args, vec![Value::obj(fields)]))?;
    }

    // the driver's line: exactly these four keys, last on stdout
    let metrics = if args.trace {
        outcome.metrics.render(per_layer_table(), false)
    } else {
        outcome.metrics.render(end_to_end_table(), false)
    };
    println!(
        "{}",
        Value::obj(vec![
            ("correct", Value::Bool(outcome.tally.failed == 0)),
            ("attempted", Value::Int(outcome.tally.attempted.into())),
            ("failed", Value::Int(outcome.tally.failed.into())),
            ("metrics", metrics),
        ])
    );
    Ok(())
}

/// One workload in a fresh process of this binary; returns its result
/// object from the document the child wrote.
fn run_child(args: &Args, name: &str, trace: bool, out: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--out", out])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::null());
    if args.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{name} (trace {}) exited with {status}",
            u8::from(trace)
        ));
    }
    let text = std::fs::read_to_string(out).map_err(|e| format!("{out}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{out}: {e}"))?;
    doc.get("workloads")
        .and_then(Value::as_arr)
        .and_then(|w| w.first())
        .cloned()
        .ok_or_else(|| format!("{out}: no workload in the child's document"))
}

fn run_all(args: &Args) -> Result<bool, String> {
    let scratch = host::Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let dir = scratch
        .sub("all")
        .map_err(|e| format!("scratch directory: {e}"))?;
    let out = dir.join("child.json");
    let out = out.to_str().ok_or("scratch path is not UTF-8")?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        eprintln!("acfd_bench: {name}");
        let untraced = run_child(args, name, false, out)?;
        let traced = run_child(args, name, true, out)?;
        // end-to-end numbers from the untraced process, layer numbers
        // (and the operations that produced them) from the traced one
        let Value::Obj(mut fields) = untraced else {
            return Err(format!("{name}: malformed child document"));
        };
        let field = |k: &str| traced.get(k).cloned().unwrap_or(Value::Null);
        fields.push(("per_layer".into(), field("per_layer")));
        fields.push(("traced_attempted".into(), field("attempted")));
        fields.push(("traced_failed".into(), field("failed")));
        let merged = Value::Obj(fields);
        let failed = |k: &str| merged.get(k).and_then(Value::as_int).unwrap_or(1);
        all_correct &= failed("failed") == 0 && failed("traced_failed") == 0;
        results.push(merged);
    }
    let doc = document(args, results);
    match &args.out {
        Some(path) => write_out(path, &doc)?,
        None => println!("{doc}"),
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(a, b) {
            Ok((report, regressed)) => {
                print!("{report}");
                ExitCode::from(u8::from(regressed))
            }
            Err(e) => {
                eprintln!("acfd_bench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acfd_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_workload(&args, name, process_start).map(|()| true),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("acfd_bench: some operations failed (see fail_ratio)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("acfd_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
