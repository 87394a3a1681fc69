//! One workload, start to finish: set-up, the timed region, and (with
//! `--trace 1`) the per-layer phase.
//!
//! Load shape: closed loop, one operation at a time. The harness thread
//! only joins rank threads, so a 2-rank workload uses two cores.
//! "Tracing off" means journals, telemetry and checkpoints off — the
//! user default. The in-memory `Comm` trace cannot be disabled from
//! outside and is part of every run, timed or not.

use crate::check::{check_parallel, check_sequential, into_results, launch, Tally};
use crate::host::{self, Scratch};
use crate::layers;
use crate::metrics::{per_layer_table, Metrics};
use crate::sizing::{Exec, Program, Transport, Workload};
use crate::stats::{summarize, Summary};
use autocfd::codegen::EnginePref;
use autocfd::interp::{Frame, Machine, RunConfig};
use autocfd::planio::plan_to_json;
use autocfd::{CompileOptions, Compiled};
use serde::json::Value;
use std::time::{Duration, Instant};

pub struct Options {
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

impl Options {
    /// `full` repetitions, or two under `--quick`.
    pub fn reps(&self, full: usize) -> usize {
        if self.quick {
            2
        } else {
            full
        }
    }
}

pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Sizes and repetition counts, for the document.
    pub config: Value,
}

/// One input program with everything set-up derives from it.
pub struct Unit<'a> {
    pub program: &'a Program,
    pub compiled: Compiled,
    pub plan_json: String,
    /// The plain single-threaded kernel-engine run of the *original*
    /// program: the reference every timed run is compared with.
    pub seq_ref: (Machine, Frame),
}

pub fn compile_options(p: &Program) -> CompileOptions {
    CompileOptions {
        partition: Some(p.parts.clone()),
        optimize: true,
        engine: EnginePref::Kernel,
        threads: 1,
        ..Default::default()
    }
}

/// A cold compile as a user pays it: the pipeline, the kernel lowering
/// `RunConfig::build_engine` does before any run, and the plan JSON.
pub fn cold_compile(p: &Program) -> Result<(Compiled, String), String> {
    let compiled = autocfd::compile(&p.source, &compile_options(p)).map_err(|e| e.to_string())?;
    std::hint::black_box(compiled.run_config().build_engine().kind());
    let json = plan_to_json(&compiled.spmd_plan);
    Ok((compiled, json))
}

pub fn run_sequential(compiled: &Compiled) -> Result<(Machine, Frame), String> {
    RunConfig::new(&compiled.ir.file)
        .engine(EnginePref::Kernel)
        .run_sequential()
        .map_err(|e| e.to_string())
}

/// Launch `compiled` on `transport` and check the results against
/// `seq_ref`; the launch alone is timed.
pub fn timed_parallel(
    compiled: &Compiled,
    seq_ref: &(Machine, Frame),
    cfg: &RunConfig<'_>,
    transport: Transport,
) -> (f64, Result<(), String>) {
    let ranks = compiled.spmd_plan.ranks() as usize;
    let t = Instant::now();
    let runs = launch(cfg, ranks, transport);
    let wall = t.elapsed().as_secs_f64();
    let verdict = runs
        .and_then(into_results)
        .and_then(|par| check_parallel(seq_ref, &par, compiled, transport).map(|_| ()));
    (wall, verdict)
}

/// Set-up: compile every program, cross-check it bit-exact against the
/// tree engine (the reference no kernel code touches; at two frames,
/// the tree walk being ~10× slower), take the sequential reference,
/// and warm up. Returns `None` when a program cannot even be compiled
/// or run — nothing can be timed then.
fn set_up<'a>(w: &'a Workload, tally: &mut Tally) -> Option<Vec<Unit<'a>>> {
    let mut units = Vec::with_capacity(w.programs.len());
    for program in &w.programs {
        let what = |step: &str| format!("set-up {step} of {}", program.label);
        let (compiled, plan_json) = match cold_compile(program) {
            Ok(c) => c,
            Err(e) => {
                tally.record(&what("compile"), Err(e));
                return None;
            }
        };
        let cross = if program.frames <= 2 {
            compiled.verify(vec![], 0.0)
        } else {
            cold_compile(&program.with_frames(2)).and_then(|(c, _)| c.verify(vec![], 0.0))
        };
        tally.record(
            &what("tree cross-check"),
            cross.and_then(|d| {
                if d == 0.0 {
                    Ok(())
                } else {
                    Err(format!("max diff {d:e}"))
                }
            }),
        );
        let seq_ref = match run_sequential(&compiled) {
            Ok(s) => s,
            Err(e) => {
                tally.record(&what("sequential reference"), Err(e));
                return None;
            }
        };
        if let Exec::Parallel { overlap, transport } = w.exec {
            let cfg = compiled.run_config().overlap(overlap);
            let (_, verdict) = timed_parallel(&compiled, &seq_ref, &cfg, transport);
            tally.record(&what("warm-up"), verdict);
        }
        units.push(Unit {
            program,
            compiled,
            plan_json,
            seq_ref,
        });
    }
    Some(units)
}

/// Cold compile passes over the whole workload. Every pass's plan JSON
/// must be byte-equal to set-up's.
#[derive(Default)]
struct CompileTimes {
    /// Every program of every pass, in ms.
    per_program_ms: Vec<f64>,
    /// Per pass: the geometric mean of its programs' times, in ms. The
    /// batch's programs differ tenfold in size; the pooled median would
    /// sit in a gap between two sizes and jump with the slightest shift.
    pass_geomean_ms: Vec<f64>,
    /// Per pass: its wall, in s.
    pass_s: Vec<f64>,
}

fn compile_pass(units: &[Unit<'_>], times: &mut CompileTimes, tally: &mut Tally) {
    let mut plans = Vec::with_capacity(units.len());
    let mut log_sum = 0.0;
    let pass = Instant::now();
    for u in units {
        let t = Instant::now();
        let out = cold_compile(u.program);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        times.per_program_ms.push(ms);
        log_sum += ms.ln();
        plans.push(out);
    }
    times.pass_s.push(pass.elapsed().as_secs_f64());
    times
        .pass_geomean_ms
        .push((log_sum / units.len() as f64).exp());
    for (u, out) in units.iter().zip(plans) {
        let verdict = out.and_then(|(_, json)| {
            if json == u.plan_json {
                Ok(())
            } else {
                Err("plan JSON differs from the first compile's".into())
            }
        });
        tally.record(&format!("cold compile of {}", u.program.label), verdict);
    }
}

/// Run `op` at least `min` times and, given a deadline, until it passes.
fn repeat(min: usize, deadline: Option<Instant>, mut op: impl FnMut()) {
    let mut n = 0;
    while n < min || deadline.is_some_and(|d| Instant::now() < d) {
        op();
        n += 1;
    }
}

/// What the timed region measured.
pub struct Timed {
    pub wall: Summary,
    pub seq_wall: Summary,
    compile: CompileTimes,
}

impl Timed {
    /// The cold-compile samples, one per program per pass, in ms.
    pub fn compile_samples_ms(&self) -> &[f64] {
        &self.compile.per_program_ms
    }
}

/// The timed region. A run workload first spends 15 % of `--seconds`
/// on cold compiles of its program (after twenty untimed ones). The rest
/// — all of it for `compile-batch` — goes to rounds: three parallel runs
/// then two sequential runs (the parallel run is the one a busy
/// neighbour disturbs, so it gets more tries), or three cold passes over
/// the batch then one pass executing it; never fewer than two rounds.
/// Rounds rather than strict alternation: a 60 ms run timed right after
/// a one-second wait on a socket measures how fast an idle core wakes.
/// Rounds rather than one block each: when a neighbour on the host slows
/// the machine for a few seconds, both metrics still get samples from
/// the quiet stretches, and each metric's value is its fastest sample.
/// `--quick` has no deadlines, only the floors.
fn timed_region(w: &Workload, units: &[Unit<'_>], opts: &Options, tally: &mut Tally) -> Timed {
    let start = Instant::now();
    // the instant `share` of the way through the region
    let until =
        |share: f64| (!opts.quick).then(|| start + Duration::from_secs_f64(opts.seconds * share));
    let (mut compile, mut untimed) = (CompileTimes::default(), CompileTimes::default());
    let (mut wall, mut seq_wall) = (Vec::new(), Vec::new());
    match w.exec {
        Exec::Parallel { overlap, transport } => {
            let u = &units[0];
            repeat(20, None, || compile_pass(units, &mut untimed, tally));
            repeat(opts.reps(200), until(0.15), || {
                compile_pass(units, &mut compile, tally)
            });
            repeat(2, until(1.0), || {
                for _ in 0..opts.reps(3) {
                    let cfg = u.compiled.run_config().overlap(overlap);
                    let (s, verdict) = timed_parallel(&u.compiled, &u.seq_ref, &cfg, transport);
                    wall.push(s);
                    tally.record("parallel rep", verdict);
                }
                for _ in 0..2 {
                    let t = Instant::now();
                    let seq = run_sequential(&u.compiled);
                    seq_wall.push(t.elapsed().as_secs_f64());
                    tally.record(
                        "sequential rep",
                        seq.and_then(|s| check_sequential(&u.seq_ref, &s)),
                    );
                }
            });
        }
        Exec::SequentialBatch => {
            compile_pass(units, &mut untimed, tally);
            repeat(2, until(1.0), || {
                for _ in 0..opts.reps(3) {
                    compile_pass(units, &mut compile, tally);
                }
                let mut runs = Vec::with_capacity(units.len());
                let t = Instant::now();
                for u in units {
                    runs.push(run_sequential(&u.compiled));
                }
                seq_wall.push(t.elapsed().as_secs_f64());
                for (u, seq) in units.iter().zip(runs) {
                    tally.record(
                        &format!("sequential run of {}", u.program.label),
                        seq.and_then(|s| check_sequential(&u.seq_ref, &s)),
                    );
                }
            });
            wall.clone_from(&compile.pass_s);
        }
    }
    Timed {
        wall: summarize(&wall),
        seq_wall: summarize(&seq_wall),
        compile,
    }
}

fn end_to_end(w: &Workload, setup: &[f64], timed: &Timed, m: &mut Metrics) {
    let lines: usize = w.programs.iter().map(Program::lines).sum();
    let point_frames: u64 = w.programs.iter().map(Program::point_frames).sum();
    // the workload's execution: the parallel run, or for `compile-batch`
    // (whose wall_s is a compile pass) the sequential pass over the batch
    let exec = match w.exec {
        Exec::Parallel { .. } => &timed.wall,
        Exec::SequentialBatch => &timed.seq_wall,
    };
    m.set_summary("setup_s", summarize(setup));
    m.set_summary("wall_s", timed.wall);
    m.set_summary("seq_wall_s", timed.seq_wall);
    m.set_summary("mpoints_per_s", exec.map(|s| point_frames as f64 / s / 1e6));
    m.set_summary(
        "klines_per_s",
        summarize(&timed.compile.pass_s).map(|s| lines as f64 / s / 1e3),
    );
    m.set_summary("compile_ms", summarize(&timed.compile.pass_geomean_ms));
    m.set("peak_rss_mb", host::peak_rss_mb());
}

fn config(w: &Workload, opts: &Options, setups: usize, timed: &Timed) -> Value {
    let ints = |v: Vec<u64>| Value::Arr(v.into_iter().map(|x| Value::Int(x.into())).collect());
    let programs = w
        .programs
        .iter()
        .map(|p| {
            Value::obj(vec![
                ("label", Value::Str(p.label.clone())),
                ("extents", ints(p.extents.clone())),
                ("frames", Value::Int(p.frames.into())),
                ("width", Value::Int(p.width as i128)),
                (
                    "partition",
                    ints(p.parts.iter().map(|&x| x.into()).collect()),
                ),
                ("source_lines", Value::Int(p.lines() as i128)),
            ])
        })
        .collect();
    let (exec, ranks) = match w.exec {
        Exec::Parallel { overlap, transport } => (
            format!(
                "parallel, kernel engine x1 thread per rank, {} transport, overlap {}",
                if transport == Transport::Tcp {
                    "loopback tcp"
                } else {
                    "inproc"
                },
                if overlap { "on" } else { "off" }
            ),
            w.programs[0].parts.iter().product::<u32>(),
        ),
        Exec::SequentialBatch => (
            "sequential pass over the batch, kernel engine".to_string(),
            1,
        ),
    };
    Value::obj(vec![
        ("exec", Value::Str(exec)),
        ("ranks", Value::Int(ranks.into())),
        ("programs", Value::Arr(programs)),
        ("setups", Value::Int(setups as i128)),
        ("wall_reps", Value::Int(timed.wall.n as i128)),
        ("seq_wall_reps", Value::Int(timed.seq_wall.n as i128)),
        (
            "compile_samples",
            Value::Int(timed.compile.per_program_ms.len() as i128),
        ),
        ("seconds", Value::Float(opts.seconds)),
    ])
}

/// Run workload `w`. `Err` means nothing could be measured (a program
/// did not compile, the service could not bind); failed *operations*
/// are counted in the outcome's tally instead.
pub fn run(w: &Workload, opts: &Options, process_start: Instant) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    // Set up several times and report the best: a single set-up is
    // dominated by whatever the machine did during that one second.
    // The first also pays process start and cold caches; the last one's
    // products are the ones timed.
    let mut setup_s = Vec::new();
    let mut units = None;
    for i in 0..opts.reps(3) {
        let t = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        drop(units.take());
        units = set_up(w, &mut tally);
        setup_s.push(t.elapsed().as_secs_f64());
        if units.is_none() {
            return Err(format!("{}: set-up failed", w.name));
        }
    }
    let units = units.expect("at least one set-up ran");
    let progress = |phase: &str| {
        eprintln!(
            "acfd_bench: {} {phase} done at {:.1} s",
            w.name,
            process_start.elapsed().as_secs_f64()
        )
    };
    progress("set-up");

    let timed = timed_region(w, &units, opts, &mut tally);
    end_to_end(w, &setup_s, &timed, &mut metrics);
    progress("timed region");

    if opts.trace {
        let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
        layers::compile_stages(&units, timed.compile_samples_ms(), &mut metrics, &mut tally);
        layers::service(&units, opts, &mut metrics, &mut tally)?;
        progress("compile stages and service");
        // the run-time layers do no work on `compile-batch`
        if let Exec::Parallel { overlap, transport } = w.exec {
            layers::probes(opts, &mut metrics, &mut tally);
            progress("probes");
            layers::run_time(
                &units[0],
                overlap,
                transport,
                opts,
                &timed,
                &scratch,
                &mut metrics,
                &mut tally,
            )?;
            progress("run-time layers");
        }
        metrics.zero_missing(per_layer_table().map(|(name, _)| name));
    }

    let config = config(w, opts, setup_s.len(), &timed);
    Ok(Outcome {
        tally,
        metrics,
        config,
    })
}
