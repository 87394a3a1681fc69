//! The live telemetry plane, end to end: every stamped message pairs
//! send-to-recv across ranks on BOTH transports, the journals carry the
//! causality stamps through merge, the Chrome export draws one flow
//! arrow per received message, the advisor measures a critical path
//! from the recorded edges, and a `--telemetry` run leaves per-rank
//! spool files that `acfc top` / `acfc stats` can read and judge.

use autocfd::advisor;
use autocfd::obs;
use autocfd::runtime::{chrome_trace, EventKind, MergedTrace, TelemetryConfig};
use autocfd::runtime_net::run_spmd_tcp;
use autocfd::{compile, CompileOptions, Compiled};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

const JACOBI: &str = "
!$acf grid(24, 24)
!$acf status v, vn
      program jacobi
      real v(24,24), vn(24,24)
      integer i, j, it
      do i = 1, 24
        v(i,1) = 1.0
      end do
      do it = 1, 8
        do i = 2, 23
          do j = 2, 23
            vn(i,j) = 0.25*(v(i-1,j)+v(i+1,j)+v(i,j-1)+v(i,j+1))
          end do
        end do
        do i = 2, 23
          do j = 2, 23
            v(i,j) = vn(i,j)
          end do
        end do
      end do
      end
";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acfd-telem-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every receive must name exactly one matching send: same (sender,
/// seq) stamp, recorded on the sender's rank, addressed to the
/// receiving rank. Duplicate stamps or orphan receives are causality
/// bugs.
fn assert_causality(merged: &MergedTrace) {
    let mut sends: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    for (rank, trace) in merged.traces.iter().enumerate() {
        for e in trace.iter().filter(|e| e.kind == EventKind::Send) {
            let peer = e.peer.expect("send events carry their destination");
            let seq = e.seq.expect("send events are stamped");
            sends.entry((rank, seq)).or_default().push(peer);
        }
    }
    for ((rank, seq), peers) in &sends {
        assert_eq!(
            peers.len(),
            1,
            "stamp ({rank}, {seq}) reused across {} sends",
            peers.len()
        );
    }
    let mut recvs = 0usize;
    for (rank, trace) in merged.traces.iter().enumerate() {
        for e in trace.iter().filter(|e| e.kind == EventKind::Recv) {
            let sender = e.peer.expect("recv events carry their sender");
            let seq = e.seq.expect("recv events are stamped");
            recvs += 1;
            let dests = sends.get(&(sender, seq)).unwrap_or_else(|| {
                panic!("recv on rank {rank} names missing send ({sender}, {seq})")
            });
            assert_eq!(
                dests,
                &vec![rank],
                "send ({sender}, {seq}) addressed rank {:?}, received on {rank}",
                dests
            );
        }
    }
    assert!(recvs > 0, "the halo exchange must record receives");
}

/// Journal, reload, and merge a set of traced rank runs.
fn merge_runs(dir: &Path, transport: &str, runs: &[autocfd::interp::RankRun]) -> MergedTrace {
    obs::clean_trace_dir(dir).unwrap();
    for (rank, run) in runs.iter().enumerate() {
        assert!(
            run.outcome.is_ok(),
            "rank {rank}: {:?}",
            run.outcome.as_ref().err()
        );
        obs::write_rank_run(dir, transport, rank, runs.len(), run).unwrap();
    }
    obs::load_merged(dir).unwrap()
}

#[test]
fn every_recv_pairs_with_exactly_one_send_inproc() {
    let c = compile(JACOBI, &CompileOptions::with_partition(&[3, 1])).unwrap();
    let runs = c.run_parallel_traced(vec![]);
    let merged = merge_runs(&scratch("cause-inproc"), "inproc", &runs);
    assert_causality(&merged);
}

#[test]
fn every_recv_pairs_with_exactly_one_send_tcp() {
    let c = compile(JACOBI, &CompileOptions::with_partition(&[2, 2])).unwrap();
    let n = c.spmd_plan.ranks() as usize;
    let runs = run_spmd_tcp(n, Duration::from_secs(60), |comm| {
        c.run_config().run_rank_traced(&comm)
    })
    .expect("mesh setup");
    let merged = merge_runs(&scratch("cause-tcp"), "tcp", &runs);
    assert_causality(&merged);
}

#[test]
fn chrome_export_draws_one_flow_arrow_per_received_message() {
    let c = compile(JACOBI, &CompileOptions::with_partition(&[2, 2])).unwrap();
    let runs = c.run_parallel_traced(vec![]);
    let merged = merge_runs(&scratch("flows"), "inproc", &runs);
    let recvs: usize = merged
        .traces
        .iter()
        .flatten()
        .filter(|e| e.kind == EventKind::Recv)
        .count();
    let v = serde::json::parse(&chrome_trace(&merged)).expect("trace.json parses");
    let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let mut starts = Vec::new();
    let mut finishes = Vec::new();
    for ev in events {
        match ev.get("ph").and_then(|p| p.as_str()) {
            Some("s") => starts.push(ev.get("id").and_then(|i| i.as_int()).unwrap()),
            Some("f") => {
                assert_eq!(
                    ev.get("bp").and_then(|b| b.as_str()),
                    Some("e"),
                    "flow finish must bind to the enclosing recv slice"
                );
                finishes.push(ev.get("id").and_then(|i| i.as_int()).unwrap());
            }
            _ => {}
        }
    }
    assert_eq!(finishes.len(), recvs, "one arrow head per received message");
    for id in &finishes {
        assert!(
            starts.contains(id),
            "flow finish {id} has no matching start"
        );
    }
}

#[test]
fn advisor_measures_critical_path_from_recorded_edges() {
    let c = compile(JACOBI, &CompileOptions::with_partition(&[3, 1])).unwrap();
    let runs = c.run_parallel_traced(vec![]);
    let merged = merge_runs(&scratch("advise"), "inproc", &runs);
    let diag = advisor::diagnose(&merged);
    assert!(diag.edges_matched > 0, "halo traffic must yield edges");
    assert_eq!(diag.edges_unmatched, 0, "a complete run leaves no orphans");
    let measured = diag
        .critical_path_measured
        .expect("edge-measured path present when edges matched");
    assert!(measured > Duration::ZERO);
    assert!(
        measured <= diag.critical_path(),
        "dataflow replay can only tighten the phase-estimated bound"
    );
    let rendered = advisor::render_diagnosis(&diag);
    assert!(rendered.contains("edge-measured"), "{rendered}");
}

/// A telemetry-enabled run spools per-rank frames that `acfc top` and
/// the `acfc stats` health section read — on the in-process transport.
fn spooled_run(c: &Compiled, dir: &Path) -> Vec<autocfd::interp::RankRun> {
    obs::clean_trace_dir(dir).unwrap();
    c.run_config()
        .telemetry(TelemetryConfig {
            interval: Duration::ZERO,
            spool_dir: Some(dir.to_path_buf()),
            ..Default::default()
        })
        .run_parallel_traced()
}

#[test]
fn telemetry_run_spools_healthy_frames_per_rank() {
    let c = compile(JACOBI, &CompileOptions::with_partition(&[3, 1])).unwrap();
    let dir = scratch("spool");
    let runs = spooled_run(&c, &dir);
    assert!(runs.iter().all(|r| r.outcome.is_ok()));
    let rows = obs::scan_telemetry(&dir);
    assert_eq!(rows.len(), runs.len(), "one spool per rank");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.rank, i);
        assert!(row.frames >= 1);
        assert_eq!(row.latest.rank, i);
        assert_eq!(row.latest.engine, "kernel");
        assert!(row.latest.busy_us() > 0, "rank {i} reported no work");
        assert!(
            !row.latest.peers.is_empty(),
            "rank {i} exchanged halos but reported no peer traffic"
        );
    }
    assert!(
        obs::telemetry_failures(&rows).is_empty(),
        "a clean run must pass the health check"
    );
    // the spools coexist with the journals and the trace cleaner
    // removes both families
    obs::clean_trace_dir(&dir).unwrap();
    assert!(obs::scan_telemetry(&dir).is_empty());
}

#[test]
fn telemetry_run_spools_frames_over_tcp() {
    let c = compile(JACOBI, &CompileOptions::with_partition(&[2, 2])).unwrap();
    let n = c.spmd_plan.ranks() as usize;
    let dir = scratch("spool-tcp");
    obs::clean_trace_dir(&dir).unwrap();
    let spool = dir.clone();
    let runs = run_spmd_tcp(n, Duration::from_secs(60), move |comm| {
        c.run_config()
            .telemetry(TelemetryConfig {
                interval: Duration::ZERO,
                spool_dir: Some(spool.clone()),
                ..Default::default()
            })
            .run_rank_traced(&comm)
    })
    .expect("mesh setup");
    assert!(runs.iter().all(|r| r.outcome.is_ok()));
    let rows = obs::scan_telemetry(&dir);
    assert_eq!(rows.len(), n, "one spool per TCP rank");
    for row in &rows {
        assert!(row.latest.busy_us() > 0);
    }
    assert!(obs::telemetry_failures(&rows).is_empty());
}

/// One run, every tool: the per-rank column of `stats`
/// (`rank_breakdown`), the per-phase rows of `stats` (`phase_metrics`),
/// `advise`'s cells (`diagnose`), and the rank's last live frame (what
/// `top` reads) must all report the same time and traffic, and the one
/// imbalance figure must come out of all three tools alike.
fn assert_tools_agree(src: &str, parts: &[u32], tcp: bool, tag: &str) {
    use autocfd::runtime::{imbalance, phase_metrics, rank_breakdown, Cell};
    let c = compile(src, &CompileOptions::with_partition(parts)).unwrap();
    let n = c.spmd_plan.ranks() as usize;
    let dir = scratch(tag);
    obs::clean_trace_dir(&dir).unwrap();
    let cfg = || {
        c.run_config().overlap(true).telemetry(TelemetryConfig {
            // a frame after every event, so the last one is the total
            interval: Duration::ZERO,
            spool_dir: Some(dir.clone()),
            ..Default::default()
        })
    };
    let (label, runs) = if tcp {
        let runs = run_spmd_tcp(n, Duration::from_secs(60), |comm| {
            cfg().run_rank_traced(&comm)
        })
        .expect("mesh setup");
        ("tcp", runs)
    } else {
        ("inproc", cfg().run_parallel_traced())
    };
    for (rank, run) in runs.iter().enumerate() {
        assert!(
            run.outcome.is_ok(),
            "rank {rank}: {:?}",
            run.outcome.as_ref().err()
        );
        obs::write_rank_run(&dir, label, rank, n, run).unwrap();
    }
    let merged = obs::load_merged(&dir).unwrap();
    let breakdown = rank_breakdown(&merged.traces);
    let metrics = phase_metrics(&merged);
    let diag = advisor::diagnose(&merged);
    let frames = obs::scan_telemetry(&dir);
    assert_eq!((breakdown.len(), frames.len(), diag.ranks), (n, n, n));
    assert!(
        diag.phases.iter().any(|p| !p.total().overlap.is_zero()),
        "{tag}: overlap was on, so some phase must record overlap spans"
    );

    for rank in 0..n {
        let cells: Cell = diag.phases.iter().map(|p| p.cells[rank]).sum();
        // stats' rank column == advise's cells summed over phases
        let b = &breakdown[rank];
        assert_eq!(
            (b.compute, b.comm, b.wait),
            (cells.work(), cells.comm, cells.wait)
        );
        // the traffic every tool reports is what the trace holds
        let count = |kind| merged.traces[rank].iter().filter(move |e| e.kind == kind);
        let sends = count(EventKind::Send).count() as u64;
        let msgs =
            sends + (count(EventKind::Recv).count() + count(EventKind::Reduce).count()) as u64;
        let bytes: u64 = merged.traces[rank].iter().map(|e| e.bytes as u64).sum();
        assert_eq!((cells.msgs, cells.bytes), (msgs, bytes), "rank {rank}");
        // the last live frame: same totals, truncated to whole µs
        let f = &frames[rank].latest;
        let events = merged.traces[rank].len() as u64;
        for (what, frame_us, traced) in [
            ("compute+overlap", f.compute_us + f.overlap_us, cells.work()),
            ("comm", f.comm_us, cells.comm),
            ("wait", f.wait_us, cells.wait),
        ] {
            let traced_us = traced.as_micros() as u64;
            assert!(
                frame_us <= traced_us && traced_us - frame_us <= events,
                "{tag} rank {rank} {what}: frame {frame_us} µs vs trace {traced_us} µs"
            );
        }
        let frame_sends: u64 = f.peers.iter().map(|p| p.msgs).sum();
        let frame_bytes: u64 = f.peers.iter().map(|p| p.bytes).sum();
        let sent_bytes: u64 = count(EventKind::Send).map(|e| e.bytes as u64).sum();
        assert_eq!(
            (frame_sends, frame_bytes),
            (sends, sent_bytes),
            "rank {rank}"
        );
    }
    // stats' phase table and advise's diagnosis read the very same rows
    assert_eq!(metrics, diag.phases);

    // imbalance: stats' whole-run figure == advise's == the largest
    // entry of top's per-rank column
    let work: Vec<Duration> = breakdown.iter().map(|b| b.compute).collect();
    assert_eq!(imbalance(&work), Some(diag.imbalance));
    let top = std::process::Command::new(env!("CARGO_BIN_EXE_acfc"))
        .args(["top", dir.to_str().unwrap(), "--once"])
        .output()
        .expect("acfc top runs");
    assert!(top.status.success(), "{top:?}");
    let screen = String::from_utf8(top.stdout).unwrap();
    let column: Vec<f64> = screen
        .lines()
        .skip(2) // title line, column headings
        .map(|l| l.split_whitespace().nth(3).unwrap().parse().unwrap())
        .collect();
    assert_eq!(column.len(), n, "{screen}");
    let top_max = column.iter().copied().fold(0.0, f64::max);
    assert!(
        (top_max - diag.imbalance).abs() <= 0.0051,
        "{tag}: top prints {top_max:.2}, advise {:.4}\n{screen}",
        diag.imbalance
    );
}

#[test]
fn stats_advise_and_top_report_the_same_numbers() {
    use autocfd_cfd_kernels::{aerofoil_program, sprayer_program, CaseParams};
    let sprayer = sprayer_program(&CaseParams::sprayer_small());
    let aerofoil = aerofoil_program(&CaseParams::aerofoil_small());
    for tcp in [false, true] {
        let t = if tcp { "tcp" } else { "inproc" };
        assert_tools_agree(&sprayer, &[2, 1], tcp, &format!("agree-sprayer-{t}"));
        assert_tools_agree(&aerofoil, &[2, 1, 1], tcp, &format!("agree-aerofoil-{t}"));
    }
}
