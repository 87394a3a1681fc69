//! The performance advisor end to end: synthetic skewed journals are
//! diagnosed as imbalanced and the partition search ranks a balanced
//! Table-1 candidate above the measured skew; forecast divergence stays
//! clean on a real traced run and flags a doctored one; and the `acfc
//! advise` CLI writes schema-versioned advice.

use autocfd::advisor;
use autocfd::grid::{GridShape, PartitionSpec};
use autocfd::obs;
use autocfd::runtime::{
    merge, phase_metrics, EventKind, JournalEvent, JournalHeader, RankJournal, SCHEMA_VERSION,
};
use autocfd::{compile, CompileOptions};
use autocfd_cfd_kernels::{sprayer_program, CaseParams};
use std::path::PathBuf;
use std::time::Duration;

/// Per-test scratch directory (unique per process, reused across runs).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acfd-advisor-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn compute(start: Duration, end: Duration, phase: &str) -> JournalEvent {
    JournalEvent {
        kind: EventKind::Compute,
        start,
        end,
        peer: None,
        elems: 0,
        bytes: 0,
        phase: phase.into(),
        seq: None,
    }
}

fn recv(start: Duration, end: Duration, peer: usize, elems: usize, phase: &str) -> JournalEvent {
    JournalEvent {
        kind: EventKind::Recv,
        start,
        end,
        peer: Some(peer),
        elems,
        bytes: elems * 8,
        phase: phase.into(),
        seq: Some(1),
    }
}

/// Four ranks on a 300x100 grid split `1x4`: ranks 0..3 each compute
/// 10 ms per step, rank 3 computes 40 ms (a 4x hot strip). Every rank
/// then blocks in a halo receive until the straggler arrives at the
/// shared rendezvous (t = 41 ms journal-local), and a reduction closes
/// the step. Rank 1's wall clock is 3 s ahead so the merge must align
/// on the sync marker, not the header epochs.
fn skewed_journals() -> Vec<RankJournal> {
    (0..4usize)
        .map(|rank| {
            let work = if rank == 3 { ms(40) } else { ms(10) };
            let epoch_skew = if rank == 1 { 3_000_000_000 } else { 0 };
            let events = vec![
                compute(ms(0), work, "step"),
                recv(work, ms(41), (rank + 1) % 4, 100, "sync_v"),
                JournalEvent {
                    kind: EventKind::Reduce,
                    start: ms(41),
                    end: ms(43),
                    peer: None,
                    elems: 1,
                    bytes: 8,
                    phase: "reduce_res".into(),
                    seq: None,
                },
            ];
            RankJournal {
                header: JournalHeader {
                    version: SCHEMA_VERSION,
                    rank,
                    ranks: 4,
                    transport: "inproc".into(),
                    epoch_unix_ns: 1_700_000_000_000_000_000 + epoch_skew,
                },
                events,
                complete: true,
                skipped: 0,
            }
        })
        .collect()
}

#[test]
fn skewed_partition_is_diagnosed_and_search_rebalances_it() {
    let journals = skewed_journals();
    let merged = merge(&journals);
    let diag = advisor::diagnose(&merged);
    assert_eq!(diag.ranks, 4);
    assert_eq!(diag.straggler, Some(3), "rank 3 does 4x the work");
    assert!(
        diag.imbalance > 1.5,
        "40 ms vs 17.5 ms mean should read as imbalance {:.2} > 1.5",
        diag.imbalance
    );
    let exposed = diag.exposed_pct.expect("halo waits recorded");
    assert!(
        exposed > 99.0,
        "no overlap spans, so every comm microsecond is exposed: {exposed:.1}%"
    );
    // per-sync attribution: the halo phase carries the wait, not the step
    let sync = diag.phases.iter().find(|p| p.phase == "sync_v").unwrap();
    let sync = sync.total();
    assert!(sync.wait > Duration::ZERO);
    assert_eq!(sync.msgs, 4);
    assert_eq!(sync.bytes, 4 * 100 * 8);

    let shape = GridShape::d2(300, 100);
    let rec = advisor::search(
        &diag,
        &shape,
        &PartitionSpec::new(&[1, 4]),
        &advisor::SearchConfig::default(),
    )
    .unwrap();
    assert!(rec.current.measured);
    assert!(
        rec.candidates.len() >= 3,
        "1x4, 2x2 and 4x1 all fit 300x100: {:?}",
        rec.candidates.iter().map(|c| &c.parts).collect::<Vec<_>>()
    );
    let best = rec.best();
    assert!(
        best.predicted.total < rec.current.predicted.total,
        "an ideally balanced candidate must beat the measured skew \
         ({:?} vs current {:?})",
        best.predicted.total,
        rec.current.predicted.total
    );
    assert!(best.wall_delta_pct < 0.0);
    let report = advisor::render_recommendation(&rec);
    assert!(
        report.contains("repartition"),
        "a faster candidate exists, so the report must recommend moving:\n{report}"
    );
}

#[test]
fn diagnosis_uses_marker_alignment_not_wall_clock_epochs() {
    let journals = skewed_journals();
    // Rank 1's header epoch reads 3 s ahead of the others; trusting it
    // would inflate the makespan by that much. The merge aligns at the
    // first shared sync instead, before any skew math runs.
    let skew = journals[1].header.epoch_unix_ns - journals[0].header.epoch_unix_ns;
    assert!(skew >= 3_000_000_000, "fixture lost its clock skew: {skew}");
    let wall_aligned = advisor::diagnose(&merge(&journals)).wall;
    assert!(
        wall_aligned < Duration::from_millis(100),
        "marker alignment should recover the ~43 ms true makespan: {wall_aligned:?}"
    );
}

#[test]
fn forecast_divergence_is_clean_on_real_trace_and_flags_a_doctored_one() {
    let src = sprayer_program(&CaseParams::sprayer_small());
    let c = compile(&src, &CompileOptions::with_partition(&[2, 1])).unwrap();
    let runs = c.run_parallel_traced(vec![]);
    let dir = scratch("divergence");
    obs::clean_trace_dir(&dir).unwrap();
    for (rank, run) in runs.iter().enumerate() {
        run.outcome.as_ref().unwrap();
        obs::write_rank_run(&dir, "inproc", rank, runs.len(), run).unwrap();
    }
    let merged = obs::load_merged(&dir).unwrap();
    let fc = autocfd::interp::forecast(&c.parallel_file, &c.spmd_plan).unwrap();

    let clean = advisor::divergence(&fc, &phase_metrics(&merged), 0);
    assert!(!clean.is_empty());
    for d in clean.iter().filter(|d| d.forecast) {
        assert!(
            d.ok(0.0),
            "phase {}: {} B vs {} B predicted",
            d.phase,
            d.bytes_measured,
            d.bytes_predicted
        );
    }

    // Doctor the trace: double every wire byte in one sync phase, as a
    // broken transport (or stale forecast) would.
    let mut doctored = merged.clone();
    let target = doctored.phase_names[0]
        .iter()
        .position(|n| n.starts_with("sync_"))
        .expect("sprayer has halo syncs") as u32;
    for trace in &mut doctored.traces {
        for ev in trace.iter_mut().filter(|e| e.phase == target) {
            ev.bytes *= 2;
        }
    }
    let flagged = advisor::divergence(&fc, &phase_metrics(&doctored), 0);
    assert!(
        flagged.iter().any(|d| d.forecast && !d.ok(0.5)),
        "doubling wire bytes must diverge past 50%: {flagged:?}"
    );
}

// ---------------------------------------------------------------------
// Process-level: the real binary
// ---------------------------------------------------------------------

fn acfc() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_acfc"))
}

#[test]
fn acfc_advise_writes_schema_versioned_advice_with_a_recommendation() {
    let src = sprayer_program(&CaseParams::sprayer_small());
    let c = compile(&src, &CompileOptions::with_partition(&[2, 2])).unwrap();
    let runs = c.run_parallel_traced(vec![]);
    let dir = scratch("cli-advise");
    obs::clean_trace_dir(&dir).unwrap();
    for (rank, run) in runs.iter().enumerate() {
        run.outcome.as_ref().unwrap();
        obs::write_rank_run(&dir, "inproc", rank, runs.len(), run).unwrap();
    }
    let src_path = dir.join("sprayer.f");
    std::fs::write(&src_path, &src).unwrap();

    let out = acfc()
        .args([
            "advise",
            &dir.to_string_lossy(),
            "--input",
            &src_path.to_string_lossy(),
            "--partition",
            "2x2",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "advise failed:\n{stderr}");
    assert!(
        stderr.contains("load balance"),
        "report on stderr:\n{stderr}"
    );
    assert!(stderr.contains("exposed"), "exposed-comm table:\n{stderr}");

    let advice_path = dir.join("advice.json");
    let text = std::fs::read_to_string(&advice_path).unwrap();
    let v = serde::json::parse(&text).expect("advice.json must parse");
    assert_eq!(v.get("schema").and_then(|s| s.as_int()), Some(1));
    assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("advice"));
    assert_eq!(v.get("ranks").and_then(|r| r.as_int()), Some(4));
    let diag = v.get("diagnosis").expect("diagnosis object");
    assert!(!diag
        .get("phases")
        .and_then(|p| p.as_arr())
        .unwrap()
        .is_empty());
    let rec = v.get("recommendation").expect("recommendation present");
    assert!(
        !rec.get("candidates")
            .and_then(|c| c.as_arr())
            .unwrap()
            .is_empty(),
        "Table-1 candidates must be ranked"
    );
    assert!(rec.get("best").and_then(|b| b.as_str()).is_some());
    assert!(v.get("divergence").and_then(|d| d.as_arr()).is_some());
}
