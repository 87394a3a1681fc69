//! The per-layer phase of a traced run (`--trace 1`). Layers are the
//! crates; every layer is measured from outside, by timing calls into
//! its public functions and by reading the trace every run records.
//! Durations are means over ranks unless said otherwise. Nothing here
//! is gated.

use crate::check::{check_parallel, into_results, launch, merged_trace, Tally};
use crate::host::{self, Scratch};
use crate::metrics::Metrics;
use crate::sizing::{Program, Transport};
use crate::stats::{best, median, percentile, tail_percentile};
use crate::workload::{cold_compile, compile_options, timed_parallel, Options, Timed, Unit};
use autocfd::advisor::{self, SearchConfig};
use autocfd::codegen::{transform, EnginePref, PlanKey};
use autocfd::compile_service::{Client, CompileReq, Request, Service, ServiceConfig};
use autocfd::depend::analyze_unit;
use autocfd::grid::{choose_partition, partition, GridShape, PartitionSpec};
use autocfd::interp::spmd::CheckpointOpts;
use autocfd::interp::{kernel_nests, repartition, RankRun, RunConfig};
use autocfd::ir::build_ir;
use autocfd::planio::{plan_from_json, plan_to_json};
use autocfd::runtime::checkpoint::{epoch_dir, write_snapshot};
use autocfd::runtime::telemetry::{encode_stat_frame, read_spool, spool_path};
use autocfd::runtime::{
    chrome_trace, latest_consistent_epoch, load_epoch, rank_breakdown, run_spmd, Comm, EventKind,
    PeerTraffic, StatFrame, TelemetryConfig, TELEMETRY_SCHEMA,
};
use autocfd::runtime_net::frame::{decode, encode, Frame};
use autocfd::runtime_net::run_spmd_tcp;
use autocfd::serve::PipelineBackend;
use autocfd::syncopt::plan_program;
use autocfd::{fortran, obs};
use serde::json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn secs<T>(op: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = op();
    (t.elapsed().as_secs_f64(), out)
}

/// Stages that `autocfd::compile` + kernel lowering + plan JSON run, so
/// their sum is comparable with the whole; `compile.stage_coverage` is
/// that ratio. `depend.sldp_ms` is timed standalone but also runs
/// inside `syncopt.plan_ms`, so it is not in the sum.
const PIPELINE_STAGES: [&str; 9] = [
    "fortran.parse_ms",
    "fortran.lint_ms",
    "ir.build_ms",
    "grid.partition_ms",
    "syncopt.plan_ms",
    "codegen.transform_ms",
    "interp.kernel_eligible_ms",
    "interp.kernel_lower_ms",
    "codegen.plan_encode_ms",
];

/// Exact counts one staged pass over the programs produces.
#[derive(Default)]
struct StageCounts {
    field_loops: usize,
    pairs: usize,
    syncs_before: u64,
    syncs_after: u64,
    plan_bytes: usize,
    kernel_nests: usize,
}

/// Walk one program through the pipeline stage by stage, adding each
/// stage's seconds to `acc`. Returns the plan JSON the stages produced.
fn staged_compile(
    p: &Program,
    acc: &mut BTreeMap<&'static str, f64>,
    counts: &mut StageCounts,
) -> Result<String, String> {
    let mut stage = |name: &'static str, s: f64| *acc.entry(name).or_insert(0.0) += s;
    let err = |e: &dyn std::fmt::Display| e.to_string();

    let (s, file) = secs(|| fortran::parse(&p.source));
    stage("fortran.parse_ms", s);
    let file = file.map_err(|e| err(&e))?;
    let (s, lint) = secs(|| fortran::lint(&file));
    stage("fortran.lint_ms", s);
    lint.map_err(|e| err(&e))?;
    let (s, ir) = secs(|| build_ir(file));
    stage("ir.build_ms", s);
    let ir = ir.map_err(|e| err(&e))?;

    let shape = GridShape {
        extents: ir.grid_extents(),
    };
    let spec = PartitionSpec::new(&p.parts);
    let (s, part) = secs(|| partition(&shape, &spec));
    stage("grid.partition_ms", s);
    let (s, _) = secs(|| black_box(choose_partition(&shape, spec.tasks(), 1)));
    stage("grid.choose_ms", s);
    let cut_axes: Vec<usize> = (0..p.parts.len()).filter(|&a| p.parts[a] > 1).collect();

    let (s, pairs) = secs(|| {
        ir.units
            .iter()
            .map(|u| analyze_unit(&ir, u, &cut_axes, 1).pairs.len())
            .sum::<usize>()
    });
    stage("depend.sldp_ms", s);
    let (s, sync_plan) = secs(|| plan_program(&ir, &cut_axes, 1, true));
    stage("syncopt.plan_ms", s);
    let (s, out) = secs(|| transform(&ir, &part, &sync_plan, 1));
    stage("codegen.transform_ms", s);
    let (parallel_file, mut plan) = out.map_err(|e| err(&e))?;

    let (s, nests) = secs(|| kernel_nests(&parallel_file));
    stage("interp.kernel_eligible_ms", s);
    plan.engine = EnginePref::Kernel;
    plan.threads = 1;
    plan.kernel_nests = nests;
    let (s, _) = secs(|| {
        black_box(
            RunConfig::new(&parallel_file)
                .plan(&plan)
                .build_engine()
                .kind(),
        )
    });
    stage("interp.kernel_lower_ms", s);

    let (s, json) = secs(|| plan_to_json(&plan));
    stage("codegen.plan_encode_ms", s);
    let (s, decoded) = secs(|| plan_from_json(&json, "acfd_bench"));
    stage("codegen.plan_decode_ms", s);
    decoded.map_err(|e| err(&e))?;
    let parts: Vec<usize> = p.parts.iter().map(|&x| x as usize).collect();
    let (s, _) = secs(|| {
        black_box(PlanKey::new(&p.source, &parts, None, true, EnginePref::Kernel, 1).digest())
    });
    stage("codegen.plan_key_ms", s);
    let (s, _) = secs(|| black_box(fortran::print(&parallel_file)));
    stage("fortran.print_ms", s);

    counts.field_loops += ir
        .units
        .iter()
        .map(|u| u.field_roots().count())
        .sum::<usize>();
    counts.pairs += pairs;
    counts.syncs_before += sync_plan.stats.before;
    counts.syncs_after += sync_plan.stats.after;
    counts.plan_bytes += json.len();
    counts.kernel_nests += plan.kernel_nests.len();
    Ok(json)
}

/// Compile time split by stage, over the workload's programs. Each
/// pass adds up every program's time per stage; a stage's metric is the
/// median pass total divided by the number of programs, so the stages
/// add up the way a pass does.
pub fn compile_stages(
    units: &[Unit<'_>],
    compile_samples_ms: &[f64],
    m: &mut Metrics,
    tally: &mut Tally,
) {
    // milliseconds per pass, so `--quick` keeps the counts: the coverage
    // ratio of two passes is mostly noise
    let passes = if units.len() > 1 { 7 } else { 50 };
    let mut totals: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut whole = Vec::with_capacity(passes);
    let mut counts = StageCounts::default();
    for _ in 0..passes {
        let mut acc = BTreeMap::new();
        counts = StageCounts::default();
        let mut whole_s = 0.0;
        for u in units {
            let staged = staged_compile(u.program, &mut acc, &mut counts);
            tally.record(
                &format!("staged compile of {}", u.program.label),
                staged.and_then(|json| {
                    if json == u.plan_json {
                        Ok(())
                    } else {
                        Err("the stages' plan differs from autocfd::compile's".into())
                    }
                }),
            );
            whole_s += secs(|| black_box(cold_compile(u.program).is_ok())).0;
        }
        for (name, s) in acc {
            totals.entry(name).or_default().push(s);
        }
        whole.push(whole_s);
    }

    let n = units.len() as f64;
    let mut covered = 0.0;
    for (name, pass_totals) in &totals {
        let pass = median(pass_totals);
        m.set(name, pass / n * 1e3);
        if PIPELINE_STAGES.contains(name) {
            covered += pass;
        }
    }
    m.set("compile.stage_coverage", covered / median(&whole));
    let lines: usize = units.iter().map(|u| u.program.lines()).sum();
    m.set(
        "fortran.klines_per_s",
        lines as f64 / median(&totals["fortran.parse_ms"]) / 1e3,
    );
    m.set("ir.field_loops", counts.field_loops as f64);
    m.set("depend.pairs", counts.pairs as f64);
    m.set("syncopt.syncs_before", counts.syncs_before as f64);
    m.set("syncopt.syncs_after", counts.syncs_after as f64);
    m.set(
        "syncopt.reduction_pct",
        100.0 * (1.0 - counts.syncs_after as f64 / (counts.syncs_before as f64).max(1.0)),
    );
    m.set("codegen.plan_bytes", counts.plan_bytes as f64);
    m.set("interp.kernel_nests", counts.kernel_nests as f64);

    // the timed region's cold-compile samples: the highest percentile
    // that still has ten samples beyond it (the maximum below 40)
    let p = tail_percentile(compile_samples_ms.len()).unwrap_or(100.0);
    m.set("compile.tail_ms", percentile(compile_samples_ms, p));
    m.set("compile.tail_percentile", p);
}

/// One in-process `compile_service::Service` on a loopback port: one
/// miss per program, a few untimed hits, then rounds of one hit per
/// program (interleaved, so the cache holds the whole batch at once) —
/// 400 timed hits in all. Every response must carry the expected cache
/// verdict and the cold compile's plan, byte for byte.
pub fn service(
    units: &[Unit<'_>],
    opts: &Options,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let service = Service::bind(
        "127.0.0.1:0",
        Box::new(PipelineBackend::new()),
        ServiceConfig {
            capacity: 2 * units.len(),
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind compile service: {e}"))?;
    let handle = service
        .spawn()
        .map_err(|e| format!("spawn compile service: {e}"))?;
    let (mut cold_ms, mut hit_ms) = (Vec::new(), Vec::new());
    let outcome = (|| -> Result<(), String> {
        let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
        let requests: Vec<Request> = units
            .iter()
            .map(|u| {
                Request::Compile(CompileReq {
                    source: u.program.source.clone(),
                    parts: u.program.parts.iter().map(|&p| p as usize).collect(),
                    distance: None,
                    optimize: true,
                    engine: EnginePref::Kernel,
                    threads: 1,
                })
            })
            .collect();
        let warm_up = 1 + 50usize.div_ceil(units.len()); // rounds 1..warm_up are untimed
        let timed = opts.reps(400usize.div_ceil(units.len()));
        for round in 0..warm_up + timed {
            let expect = if round == 0 { "miss" } else { "hit" };
            for (u, req) in units.iter().zip(&requests) {
                let t = Instant::now();
                let resp = client.request(req, &mut |_| {});
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if round == 0 {
                    cold_ms.push(ms);
                } else if round >= warm_up {
                    hit_ms.push(ms);
                }
                let verdict = resp.map_err(|e| e.to_string()).and_then(|r| {
                    let cache = r.get("cache").and_then(Value::as_str).unwrap_or("?");
                    if cache != expect {
                        return Err(format!("expected a cache {expect}, got `{cache}`"));
                    }
                    if r.get("plan").and_then(Value::as_str) != Some(u.plan_json.as_str()) {
                        return Err("served plan differs from the cold compile's".into());
                    }
                    Ok(())
                });
                tally.record(&format!("service {expect} of {}", u.program.label), verdict);
            }
        }
        let stats = client
            .request(&Request::Stats, &mut |_| {})
            .map_err(|e| e.to_string())?;
        let count = |k: &str| stats.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        m.set(
            "compile-service.hit_ratio",
            count("hits") / (count("hits") + count("misses")).max(1.0),
        );
        Ok(())
    })();
    m.set(
        "compile-service.pipeline_invocations",
        handle.pipeline_invocations() as f64,
    );
    handle.shutdown();
    outcome?;
    m.set("compile-service.cold_ms", median(&cold_ms));
    m.set("compile-service.warm_hit_ms", median(&hit_ms));
    Ok(())
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in v {
        sum += x;
        n += 1;
    }
    sum / n.max(1) as f64
}

fn pct_over(twin: f64, plain: f64) -> f64 {
    100.0 * (twin - plain) / plain
}

/// The run-time layers of a parallel workload: one more traced run,
/// read through `rank_breakdown`, `comm_stats`, `wire_stats` and
/// `machine.ops`; then twin runs with one thing changed each, each the
/// best of three like the plain run they are compared with.
/// Observability on runs everywhere. The others run only where the
/// change means something: overlap off where the workload has it on,
/// the in-process transport where the workload uses TCP, and
/// checkpoints on and 1 rank × 2 threads on the plain configuration
/// (in-process, overlap off); elsewhere their metrics read 0.
#[allow(clippy::too_many_arguments)]
pub fn run_time(
    u: &Unit<'_>,
    overlap: bool,
    transport: Transport,
    opts: &Options,
    timed: &Timed,
    scratch: &Scratch,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("scratch directory: {e}");
    let plan = &u.compiled.spmd_plan;
    let ranks = plan.ranks() as usize;
    let twin_reps = opts.reps(3);
    let write_journals = |dir: &std::path::Path, runs: &[RankRun]| -> Result<(), String> {
        for (rank, run) in runs.iter().enumerate() {
            obs::write_rank_run(dir, transport.label(), rank, ranks, run)?;
        }
        Ok(())
    };

    // ---- the traced run ------------------------------------------------
    let mut plain_wall = Vec::new();
    let mut traced = None;
    for _ in 0..twin_reps {
        let cfg = u.compiled.run_config().overlap(overlap);
        let (s, runs) = secs(|| launch(&cfg, ranks, transport));
        plain_wall.push(s);
        traced = Some(runs?);
    }
    let plain_wall = best(&plain_wall);
    let runs = traced.expect("twin_reps >= 1");

    let journal_dir = scratch.sub("journal").map_err(io)?;
    let (write_s, written) = secs(|| write_journals(&journal_dir, &runs));
    written?;
    let events: usize = runs.iter().map(|r| r.trace.len()).sum();
    m.set("runtime.journal_write_ms", write_s * 1e3);
    m.set(
        "runtime.journal_bytes",
        host::dir_bytes(&journal_dir) as f64,
    );
    m.set(
        "runtime.journal_ns_per_event",
        write_s * 1e9 / events.max(1) as f64,
    );
    let (s, merged) = secs(|| obs::load_merged(&journal_dir));
    let merged = merged?;
    m.set("runtime.journal_load_merge_ms", s * 1e3);
    m.set(
        "runtime.export_chrome_ms",
        secs(|| black_box(chrome_trace(&merged).len())).0 * 1e3,
    );

    let (s, diag) = secs(|| advisor::diagnose(&merged));
    m.set("advisor.diagnose_ms", s * 1e3);
    let shape = GridShape {
        extents: u.program.extents.clone(),
    };
    let (s, rec) = secs(|| {
        advisor::search(
            &diag,
            &shape,
            &plan.partition.spec,
            &SearchConfig::default(),
        )
    });
    m.set("advisor.search_ms", s * 1e3);
    tally.record("advisor search on the traced run", rec.map(|_| ()));

    let par = into_results(runs)?;
    let traffic = check_parallel(&u.seq_ref, &par, &u.compiled, transport);
    let vs_forecast = match &traffic {
        Ok(t) => t.msgs_measured as f64 / t.msgs_predicted.max(1) as f64,
        Err(_) => 0.0,
    };
    tally.record("traced run", traffic.map(|_| ()));

    let trace = merged_trace(&par, transport);
    let breakdown = rank_breakdown(&trace.traces);
    let per_rank = |f: &dyn Fn(&autocfd::runtime::RankBreakdown) -> Duration| {
        mean(breakdown.iter().map(|b| f(b).as_secs_f64()))
    };
    let compute_s = per_rank(&|b| b.compute);
    let wait_s = per_rank(&|b| b.wait);
    let rank_wall_s = per_rank(&|b| b.wall);
    let overlap_s = mean(trace.traces.iter().map(|t| {
        t.iter()
            .filter(|e| e.kind == EventKind::Overlap)
            .map(|e| e.span().as_secs_f64())
            .sum()
    }));
    m.set("interp.compute_s", compute_s);
    m.set("interp.compute_share", compute_s / rank_wall_s);
    m.set("interp.overlap_s", overlap_s);
    m.set("runtime.wait_s", wait_s);
    m.set("runtime.comm_s", per_rank(&|b| b.comm));
    m.set("runtime.wait_share", wait_s / rank_wall_s);
    m.set(
        "runtime.exposed_comm_pct",
        if wait_s + overlap_s > 0.0 {
            100.0 * wait_s / (wait_s + overlap_s)
        } else {
            0.0
        },
    );
    let max_compute = breakdown
        .iter()
        .map(|b| b.compute.as_secs_f64())
        .fold(0.0, f64::max);
    m.set("runtime.imbalance", max_compute / compute_s);
    m.set(
        "runtime.trace_coverage",
        breakdown
            .iter()
            .map(|b| b.coverage())
            .fold(f64::INFINITY, f64::min),
    );

    let sum =
        |f: &dyn Fn(&autocfd::interp::RankResult) -> u64| par.iter().map(f).sum::<u64>() as f64;
    let payload = sum(&|r| r.comm_stats.1 * 8);
    let wire = sum(&|r| r.wire_stats.bytes_sent);
    m.set("runtime.msgs", sum(&|r| r.comm_stats.0));
    m.set("runtime.payload_bytes", payload);
    m.set("runtime.wire_bytes", wire);
    m.set("runtime.barriers", sum(&|r| r.comm_stats.2));
    m.set("runtime.reduces", sum(&|r| r.comm_stats.3));
    m.set("runtime.msgs_vs_forecast", vs_forecast);
    m.set("runtime.trace_events", events as f64);
    if transport == Transport::Tcp {
        m.set("runtime-net.wire_overhead_pct", pct_over(wire, payload));
    }

    // Operation counts are exact; bytes are *computed* from them (8 per
    // load or store) and ignore caches.
    let (flops, loads, stores) = (
        sum(&|r| r.machine.ops.flops),
        sum(&|r| r.machine.ops.loads),
        sum(&|r| r.machine.ops.stores),
    );
    let busy_s = compute_s * ranks as f64; // summed over ranks
    let triad_gbs = m.get("host.triad_gbs");
    m.set("interp.flops", flops);
    m.set("interp.loads", loads);
    m.set("interp.stores", stores);
    m.set(
        "interp.mpoints_per_s",
        u.program.point_frames() as f64 / compute_s / 1e6,
    );
    m.set("interp.mflops", flops / busy_s / 1e6);
    m.set("interp.bytes_per_flop", 8.0 * (loads + stores) / flops);
    m.set(
        "interp.roofline_frac",
        8.0 * (loads + stores) / busy_s / 1e9 / triad_gbs,
    );
    m.set(
        "runtime.speedup_vs_seq",
        timed.seq_wall.best / timed.wall.best,
    );
    m.set(
        "runtime.efficiency",
        timed.seq_wall.best / timed.wall.best / ranks as f64,
    );

    // ---- twins -----------------------------------------------------------
    // Observability on: telemetry at its default 100 ms cadence spooling
    // to disk plus the rank journals, against the plain traced run — the
    // difference is the tracing overhead.
    let mut observed = Vec::new();
    let mut frames = 0;
    for _ in 0..twin_reps {
        let dir = scratch.sub("observed").map_err(io)?;
        let cfg = u
            .compiled
            .run_config()
            .overlap(overlap)
            .telemetry(TelemetryConfig {
                spool_dir: Some(dir.clone()),
                ..Default::default()
            });
        let (s, out) =
            secs(|| launch(&cfg, ranks, transport).and_then(|r| write_journals(&dir, &r)));
        out?;
        observed.push(s);
        frames = (0..ranks)
            .map(|r| read_spool(&spool_path(&dir, r)).map_or(0, |(f, _)| f.len()))
            .sum();
    }
    m.set(
        "runtime.observed_overhead_pct",
        pct_over(best(&observed), plain_wall),
    );
    m.set("runtime.telemetry_frames", frames as f64);

    let twin = |compiled: &autocfd::Compiled,
                cfg: RunConfig<'_>,
                transport: Transport,
                tally: &mut Tally| {
        let walls: Vec<f64> = (0..twin_reps)
            .map(|_| {
                let (s, verdict) = timed_parallel(compiled, &u.seq_ref, &cfg, transport);
                tally.record("twin run", verdict);
                s
            })
            .collect();
        best(&walls)
    };
    if overlap {
        let cfg = u.compiled.run_config().overlap(false);
        m.set(
            "interp.overlap_off_wall_s",
            twin(&u.compiled, cfg, transport, tally),
        );
    }
    if transport == Transport::Tcp {
        let cfg = u.compiled.run_config().overlap(overlap);
        m.set(
            "runtime.inproc_wall_s",
            twin(&u.compiled, cfg, Transport::Inproc, tally),
        );
    }
    if overlap || transport == Transport::Tcp {
        return Ok(()); // the last two twins are for the plain configuration
    }

    // 1 rank × 2 kernel threads: the other way to use two cores.
    let mut solo = u.program.clone();
    solo.parts.fill(1);
    let threaded = autocfd::compile(
        &solo.source,
        &autocfd::CompileOptions {
            threads: 2,
            ..compile_options(&solo)
        },
    )
    .map_err(|e| e.to_string())?;
    m.set(
        "interp.threads2_wall_s",
        twin(&threaded, threaded.run_config(), Transport::Inproc, tally),
    );

    // Checkpoints on, every 4th visit of a checkpoint-safe sync.
    let ckpt_dir = scratch.sub("checkpoint").map_err(io)?;
    let cfg = u.compiled.run_config().checkpoint(CheckpointOpts {
        every: 4,
        dir: ckpt_dir.clone(),
        chaos_abort_after: None,
    });
    m.set(
        "runtime.checkpoint_overhead_pct",
        pct_over(twin(&u.compiled, cfg, transport, tally), plain_wall),
    );
    let snaps = latest_consistent_epoch(&ckpt_dir)
        .ok_or("no consistent epoch".to_string())
        .and_then(|epoch| {
            m.set(
                "runtime.checkpoint_bytes",
                host::dir_bytes(&epoch_dir(&ckpt_dir, epoch)) as f64,
            );
            let (s, snaps) = secs(|| load_epoch(&ckpt_dir, epoch));
            m.set("runtime.checkpoint_load_ms", s * 1e3);
            snaps
        });
    if let Ok(snaps) = &snaps {
        let rewrite = scratch.sub("checkpoint-rewrite").map_err(io)?;
        let (s, out) = secs(|| {
            snaps
                .iter()
                .try_for_each(|snap| write_snapshot(&rewrite, snap).map(|_| ()))
        });
        m.set("runtime.checkpoint_write_ms", s * 1e3);
        tally.record("snapshot rewrite", out.map_err(|e| e.to_string()));

        // elastic resume's core: the 2-rank cut re-decomposed onto the
        // partition along the next axis
        let mut turned = u.program.clone();
        turned.parts.rotate_right(1);
        let elastic = autocfd::compile(&turned.source, &compile_options(&turned))
            .map_err(|e| e.to_string())
            .and_then(|alt| {
                let (s, out) = secs(|| repartition(snaps, &alt.spmd_plan, &alt.parallel_file));
                m.set("interp.elastic_repartition_ms", s * 1e3);
                out.map(|_| ())
            });
        tally.record("elastic repartition", elastic);
    }
    tally.record("checkpoint twin wrote an epoch", snaps.map(|_| ()));
    Ok(())
}

/// Round trips of `elems` f64 between ranks 0 and 1; rank 0 reports the
/// seconds per round trip.
fn ping_pong(comm: &Comm, elems: usize, rounds: usize) -> Result<f64, String> {
    let payload = vec![1.0f64; elems];
    let (me, tag) = (comm.rank(), 77);
    let t = Instant::now();
    for _ in 0..rounds {
        if me == 0 {
            comm.send(1, tag, &payload).map_err(|e| e.to_string())?;
            black_box(comm.recv(1, tag).map_err(|e| e.to_string())?);
        } else {
            let got = comm.recv(0, tag).map_err(|e| e.to_string())?;
            comm.send(0, tag, &got).map_err(|e| e.to_string())?;
        }
    }
    Ok(t.elapsed().as_secs_f64() / rounds as f64)
}

const MIB_ELEMS: usize = (1 << 20) / 8;

/// Probes of the run-time layers that do not depend on the program: 8 B
/// and 1 MiB `Comm::send`/`recv` round trips on each backend, the TCP
/// mesh rendezvous, the wire frame codec, a telemetry frame encode, and
/// the streaming-bandwidth roofline. About a second and a half.
pub fn probes(opts: &Options, m: &mut Metrics, tally: &mut Tally) {
    let small_rounds = opts.reps(2000);
    let big_rounds = opts.reps(40);
    let both = |comm: &Comm| -> Result<(f64, f64), String> {
        Ok((
            ping_pong(comm, 1, small_rounds)?,
            ping_pong(comm, MIB_ELEMS, big_rounds)?,
        ))
    };
    // 1 MiB each way per round trip
    let gbs = |round_trip_s: f64| 2.0 * (1u64 << 20) as f64 / round_trip_s / 1e9;

    let inproc = run_spmd(2, |comm| both(&comm)).swap_remove(0);
    if let Ok((small, big)) = &inproc {
        m.set("runtime.inproc_pingpong_us", small * 1e6);
        m.set("runtime.inproc_bw_gbs", gbs(*big));
    }
    tally.record("inproc ping-pong probe", inproc.map(|_| ()));

    let (s, empty) = secs(|| run_spmd_tcp(2, Duration::from_secs(30), |_| ()));
    m.set("runtime-net.mesh_setup_ms", s * 1e3);
    tally.record(
        "tcp mesh probe",
        empty.map(|_| ()).map_err(|e| e.to_string()),
    );
    let tcp = run_spmd_tcp(2, Duration::from_secs(30), |comm| both(&comm))
        .map_err(|e| e.to_string())
        .and_then(|mut v| v.swap_remove(0));
    if let Ok((small, big)) = &tcp {
        m.set("runtime-net.pingpong_us", small * 1e6);
        m.set("runtime-net.bw_gbs", gbs(*big));
    }
    tally.record("tcp ping-pong probe", tcp.map(|_| ()));

    // a 1 KiB data frame, the size of a small-grid halo row
    let rounds = opts.reps(20_000);
    let frame = Frame::data(1, 1234, vec![0.5; 128]).with_seq(9);
    let (s, bytes) = secs(|| {
        let mut bytes = Vec::new();
        for _ in 0..rounds {
            bytes = encode(black_box(&frame));
        }
        bytes
    });
    m.set("runtime-net.frame_encode_ns", s * 1e9 / rounds as f64);
    let (s, back) = secs(|| {
        let mut back = None;
        for _ in 0..rounds {
            back = decode(black_box(&bytes)).ok();
        }
        back
    });
    m.set("runtime-net.frame_decode_ns", s * 1e9 / rounds as f64);
    tally.record(
        "frame codec round trip",
        match back {
            Some((f, _)) if f == frame => Ok(()),
            _ => Err("decoded frame differs".into()),
        },
    );

    let stat = StatFrame {
        schema: TELEMETRY_SCHEMA,
        rank: 1,
        seq: 42,
        at_ms: 1234,
        phase: "sync_3".into(),
        compute_us: 900_000,
        wait_us: 50_000,
        overlap_us: 20_000,
        comm_us: 30_000,
        peers: vec![PeerTraffic {
            peer: 0,
            msgs: 640,
            bytes: 512_000,
        }],
        checkpoint_epoch: 0,
        engine: "kernel".into(),
        queue_depth: 0,
        dropped: 0,
    };
    let (s, _) = secs(|| {
        for _ in 0..rounds {
            black_box(encode_stat_frame(black_box(&stat)));
        }
    });
    m.set("runtime.telemetry_encode_ns", s * 1e9 / rounds as f64);

    m.set("host.triad_gbs", host::triad_gbs(opts.quick));
}
