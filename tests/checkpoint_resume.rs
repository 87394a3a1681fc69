//! Kill-and-resume equivalence: a TCP mesh that loses one rank to an
//! injected crash mid-epoch must, after `acfc resume`-style recovery
//! from the newest consistent snapshot set, finish with fields
//! bit-identical to an uninterrupted run — on both case studies, across
//! the Table-1 partitions. Also covers torn-snapshot fallback and the
//! process-level `acfc run --chaos-abort-after` → `acfc resume` path.

use autocfd::interp::{verify_owned_regions, CheckpointOpts, RankResult, RankRun};
use autocfd::runtime::checkpoint::{
    latest_consistent_epoch, rank_snapshot_path, write_manifest, RunManifest,
};
use autocfd::runtime_net::run_spmd_tcp;
use autocfd::{compile, CompileOptions, Compiled};
use autocfd_cfd_kernels::{aerofoil_program, sprayer_program, CaseParams};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acfd-ckres-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write the relaunch manifest an `acfc run` launch would have left
/// next to the snapshots — epoch consistency is judged against its
/// recorded rank count.
fn write_run_manifest(c: &Compiled, src: &str, dir: &Path) {
    write_manifest(
        dir,
        &RunManifest {
            source: src.to_string(),
            parts: c.partition.spec.parts.clone(),
            grid: c.partition.shape.extents.clone(),
            ranks: c.spmd_plan.ranks() as usize,
            distance: 1,
            optimize: true,
            overlap: false,
            checkpoint_every: 2,
            timeout_ms: 2000,
            threads: 1,
        },
    )
    .unwrap();
}

/// Run the compiled program on a TCP mesh with checkpointing on, the
/// designated rank chaos-aborting at its `chaos_at`-th checkpoint-safe
/// sync visit. Returns the per-rank runs (the chaos rank's outcome is
/// the injected error; survivors fail with disconnect/timeout).
fn chaos_run(c: &Compiled, dir: &Path, every: u64, chaos_at: u64, overlap: bool) -> Vec<RankRun> {
    let n = c.spmd_plan.ranks() as usize;
    run_spmd_tcp(n, Duration::from_millis(1500), |comm| {
        let chaos = (comm.rank() == 0).then_some(chaos_at);
        c.run_config()
            .overlap(overlap)
            .checkpoint(CheckpointOpts {
                every,
                dir: dir.to_path_buf(),
                chaos_abort_after: chaos,
            })
            .run_rank_traced(&comm)
    })
    .expect("mesh setup")
}

/// Resume every rank from `epoch`'s snapshots on a fresh TCP mesh and
/// return the completed results in rank order.
fn resume_run(c: &Compiled, dir: &Path, epoch: u64, overlap: bool) -> Vec<RankResult> {
    let n = c.spmd_plan.ranks() as usize;
    run_spmd_tcp(n, Duration::from_secs(60), |comm| {
        c.run_config()
            .overlap(overlap)
            .resume_from(dir)
            .resume_epoch(epoch)
            .run_rank_traced(&comm)
    })
    .expect("mesh setup")
    .into_iter()
    .enumerate()
    .map(|(r, run)| {
        run.into_result()
            .unwrap_or_else(|e| panic!("resumed rank {r} failed: {e}"))
    })
    .collect()
}

/// Kill one rank mid-epoch over TCP, recover from the newest consistent
/// snapshot set, and check the resumed final state bit-exactly against
/// both the sequential original and an uninterrupted in-process run.
fn check_kill_and_resume(src: &str, parts: &[u32], every: u64, chaos_at: u64, overlap: bool) {
    let c = compile(src, &CompileOptions::with_partition(parts))
        .unwrap_or_else(|e| panic!("{parts:?}: {e}"));
    assert!(
        !c.spmd_plan.checkpoint_syncs.is_empty(),
        "{parts:?}: no checkpoint-safe sync points in the main unit"
    );
    let seq = c.run_sequential(vec![]).unwrap();
    let uninterrupted = c.run_parallel_opts(vec![], overlap).unwrap();

    let dir = temp_dir(&format!(
        "{}-{}",
        parts
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join("x"),
        if overlap { "ovl" } else { "blk" }
    ));
    write_run_manifest(&c, src, &dir);
    let runs = chaos_run(&c, &dir, every, chaos_at, overlap);
    let err = runs[0].outcome.as_ref().expect_err("rank 0 must crash");
    assert!(err.to_string().contains("chaos-abort"), "{parts:?}: {err}");

    let epoch = latest_consistent_epoch(&dir)
        .unwrap_or_else(|| panic!("{parts:?}: no consistent epoch survived the crash"));
    assert!(
        epoch < chaos_at,
        "{parts:?}: epoch {epoch} cannot postdate the crash at visit {chaos_at}"
    );
    let resumed = resume_run(&c, &dir, epoch, overlap);

    // owned regions bit-exact against the sequential original…
    let d = verify_owned_regions(&seq, &resumed, &c.spmd_plan, 0.0).unwrap();
    assert_eq!(d, 0.0, "{parts:?}: resumed fields diverged");
    // …and the observable output identical to an uninterrupted parallel
    // run (which itself matches sequential)
    assert_eq!(seq.0.output, uninterrupted[0].machine.output, "{parts:?}");
    assert_eq!(
        uninterrupted[0].machine.output, resumed[0].machine.output,
        "{parts:?}: resumed run reproduces a different output trace"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aerofoil_kill_and_resume_bit_exact_on_table1_partitions() {
    let src = aerofoil_program(&CaseParams::aerofoil_small());
    for parts in [[2u32, 1, 1], [1, 2, 1], [1, 1, 2], [2, 2, 1], [3, 1, 1]] {
        check_kill_and_resume(&src, &parts, 2, 9, false);
    }
}

#[test]
fn sprayer_kill_and_resume_bit_exact_on_table1_partitions() {
    let src = sprayer_program(&CaseParams::sprayer_small());
    for parts in [[4u32, 1], [1, 4], [2, 2], [3, 1]] {
        check_kill_and_resume(&src, &parts, 2, 7, false);
    }
}

#[test]
fn kill_and_resume_survives_overlapped_exchanges() {
    // overlap keeps receives in flight between statements; the
    // checkpoint cut still happens on drained channels, so resume must
    // stay bit-exact with overlap on
    let src = sprayer_program(&CaseParams::sprayer_small());
    check_kill_and_resume(&src, &[2, 2], 2, 7, true);
}

#[test]
fn torn_newest_snapshot_falls_back_to_previous_epoch() {
    let src = sprayer_program(&CaseParams::sprayer_small());
    let c = compile(src.as_str(), &CompileOptions::with_partition(&[2, 2])).unwrap();
    let seq = c.run_sequential(vec![]).unwrap();
    let dir = temp_dir("torn");
    write_run_manifest(&c, &src, &dir);

    let runs = chaos_run(&c, &dir, 1, 8, false);
    assert!(runs[0].outcome.is_err());
    let newest = latest_consistent_epoch(&dir).expect("epochs written");
    assert!(
        newest >= 2,
        "need at least two complete epochs, got {newest}"
    );

    // tear rank 1's newest snapshot mid-file: that epoch is now
    // unreadable and recovery must fall back to the one before it
    let torn = rank_snapshot_path(&dir, newest, 1);
    let text = std::fs::read_to_string(&torn).unwrap();
    std::fs::write(&torn, &text[..text.len() / 3]).unwrap();
    let fallback = latest_consistent_epoch(&dir).expect("older epoch still consistent");
    assert!(fallback < newest, "torn epoch {newest} must be skipped");

    let resumed = resume_run(&c, &dir, fallback, false);
    let d = verify_owned_regions(&seq, &resumed, &c.spmd_plan, 0.0).unwrap();
    assert_eq!(d, 0.0, "resume from the fallback epoch must stay bit-exact");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Process-level: the real binaries, one OS process per rank
// ---------------------------------------------------------------------

fn acfc() -> std::process::Command {
    // referencing the worker binary forces cargo to build it alongside
    let _ = env!("CARGO_BIN_EXE_acfd-worker");
    std::process::Command::new(env!("CARGO_BIN_EXE_acfc"))
}

#[test]
fn acfc_chaos_run_then_resume_end_to_end() {
    let dir = temp_dir("cli");
    let src_path = dir.join("sprayer.f");
    std::fs::write(&src_path, sprayer_program(&CaseParams::sprayer_small())).unwrap();
    let ck = dir.join("ckpt");
    let ck_s = ck.to_string_lossy().into_owned();
    let src_s = src_path.to_string_lossy().into_owned();

    // a checkpointed TCP run that loses one worker to an injected
    // abort is a runtime failure: exit code 3
    let status = acfc()
        .args([
            "run",
            &src_s,
            "--transport",
            "tcp",
            "--partition",
            "2x2",
            "--checkpoint-every",
            "2",
            "--checkpoint-dir",
            &ck_s,
            "--chaos-abort-after",
            "7",
            "--timeout-ms",
            "2000",
        ])
        .status()
        .expect("spawn acfc");
    assert_eq!(
        status.code(),
        Some(3),
        "chaos run must exit 3, got {status}"
    );
    assert!(ck.join("run.json").exists(), "relaunch manifest written");

    // resume relaunches the mesh from the newest consistent epoch and
    // must verify bit-exactly against the sequential original
    let status = acfc()
        .args(["resume", &ck_s, "--verify-exact"])
        .status()
        .expect("spawn acfc resume");
    assert!(status.success(), "resume failed: {status}");

    // elastic: re-partition the 4-rank epochs the resumed run left
    // behind onto 2 ranks and verify bit-exactly again
    let status = acfc()
        .args(["resume", &ck_s, "--ranks", "2", "--verify-exact"])
        .status()
        .expect("spawn acfc resume --ranks");
    assert!(status.success(), "elastic resume failed: {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn acfc_resume_reports_missing_checkpoints() {
    // a manifest with no snapshots: resume must fail with the runtime
    // code, not hang or succeed vacuously
    let dir = temp_dir("empty");
    let m = RunManifest {
        source: sprayer_program(&CaseParams::sprayer_small()),
        parts: vec![2, 2],
        // empty grid = a manifest from before geometry recording; plain
        // resume (same rank count) must still work with it
        grid: vec![],
        ranks: 4,
        distance: 1,
        optimize: true,
        overlap: false,
        checkpoint_every: 2,
        timeout_ms: 2000,
        threads: 1,
    };
    write_manifest(&dir, &m).unwrap();
    let status = acfc()
        .args(["resume", &dir.to_string_lossy()])
        .status()
        .expect("spawn acfc resume");
    assert_eq!(status.code(), Some(3), "{status}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn acfc_plan_artifact_round_trips_through_run() {
    let dir = temp_dir("plan");
    let src_path = dir.join("sprayer.f");
    let src = sprayer_program(&CaseParams::sprayer_small());
    std::fs::write(&src_path, &src).unwrap();
    let plan_path = dir.join("plan.json");
    let src_s = src_path.to_string_lossy().into_owned();
    let plan_s = plan_path.to_string_lossy().into_owned();

    let status = acfc()
        .args(["plan", &src_s, "--partition", "2x2", "-o", &plan_s])
        .status()
        .expect("spawn acfc plan");
    assert!(status.success(), "{status}");

    // the artifact parses and matches what an in-process compile produces
    let text = std::fs::read_to_string(&plan_path).unwrap();
    let plan = autocfd::codegen::from_json(&text, Some(4)).unwrap();
    let c = compile(&src, &CompileOptions::with_partition(&[2, 2])).unwrap();
    assert_eq!(plan, c.spmd_plan, "plan JSON must round-trip the compile");

    // an exact-verification run against the emitted artifact succeeds
    let status = acfc()
        .args([
            &src_s,
            "--partition",
            "2x2",
            "--plan",
            &plan_s,
            "--verify-exact",
        ])
        .status()
        .expect("spawn acfc run");
    assert!(status.success(), "{status}");
    let _ = std::fs::remove_dir_all(&dir);
}
