//! Execution observability: journaling traced runs, rendering the full
//! trace report, and cross-validating the cost model against measured
//! traces — the machinery behind `acfc trace` and `acfc stats`.
//!
//! A traced run produces one JSONL journal per rank (see
//! [`autocfd_runtime::journal`]); this module writes them, reloads and
//! merges them, exports Chrome trace-event JSON, and compares the
//! static per-visit traffic forecast ([`autocfd_interp::forecast()`])
//! against what the trace actually measured. The forecast shares its
//! slab geometry with the live SPMD handlers, so on a correct build the
//! byte counts agree *exactly*; any drift flags a real divergence
//! between the model and the execution.

use crate::Compiled;
use autocfd_cluster_sim::{Comparison, NetworkModel};
use autocfd_interp::forecast::{forecast, PhaseForecast};
use autocfd_interp::RankRun;
use autocfd_runtime::journal::{self, JournalHeader, MergedTrace, SCHEMA_VERSION};
use autocfd_runtime::telemetry::{read_spool, StatFrame};
use autocfd_runtime::{
    exposed_pct, fold, phase_metrics, render_phase_metrics, render_rank_breakdown, render_timeline,
    render_wire_table, Cell,
};
use autocfd_runtime_net::frame::HEADER_LEN;
use std::path::{Path, PathBuf};
use std::time::Duration;

impl Compiled {
    /// Run the transformed program on rank-threads, returning every
    /// rank's [`RankRun`] — traces and statistics survive individual
    /// rank failures, unlike [`Compiled::run_parallel`].
    pub fn run_parallel_traced(&self, input: Vec<f64>) -> Vec<RankRun> {
        self.run_parallel_traced_opts(input, false)
    }

    /// [`Compiled::run_parallel_traced`] with compute/communication
    /// overlap on or off.
    pub fn run_parallel_traced_opts(&self, input: Vec<f64>, overlap: bool) -> Vec<RankRun> {
        self.run_config()
            .input(input)
            .overlap(overlap)
            .run_parallel_traced()
    }
}

/// Remove artifacts of a previous traced run (`rank-*.jsonl`,
/// `telemetry-rank-*.jsonl`, `trace.json`) from `dir`, leaving anything
/// else alone. Missing directories are fine.
pub fn clean_trace_dir(dir: &Path) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let journal = (name.starts_with("rank-") || name.starts_with("telemetry-rank-"))
            && name.ends_with(".jsonl");
        if journal || name == "trace.json" {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// Write one rank's journal (header + events + footer) into `dir`.
/// Works for failed ranks too — the trace inside a [`RankRun`] covers
/// everything up to the failure.
pub fn write_rank_run(
    dir: &Path,
    transport: &str,
    rank: usize,
    ranks: usize,
    run: &RankRun,
) -> Result<PathBuf, String> {
    let header = JournalHeader {
        version: SCHEMA_VERSION,
        rank,
        ranks,
        transport: transport.into(),
        epoch_unix_ns: run.epoch_unix_ns,
    };
    journal::write_rank_journal(dir, &header, &run.trace, &run.phases).map_err(|e| e.to_string())
}

/// Reload a trace directory and merge the rank journals onto one
/// timeline ([`journal::merge`]: aligned at the first shared sync).
pub fn load_merged(dir: &Path) -> Result<MergedTrace, String> {
    let journals = journal::load_trace_dir(dir).map_err(|e| e.to_string())?;
    Ok(journal::merge(&journals))
}

/// Render the full trace report: timeline, wire table, per-phase
/// metrics, per-rank wall-time breakdown, and — when the run used
/// compute/communication overlap — the fraction of communication
/// latency hidden behind interior computation. Every section after the
/// timeline is a projection of one [`fold`].
pub fn render_report(merged: &MergedTrace) -> String {
    let table = fold(merged);
    let mut out = String::new();
    out.push_str(&render_timeline(&merged.traces, 72));
    out.push_str(&render_wire_table(&table));
    out.push_str(&render_phase_metrics(&table.rows));
    out.push_str(&render_rank_breakdown(&table.rank_breakdown()));
    if let Some(line) = render_comm_hidden(&table.total()) {
        out.push_str(&line);
    }
    out
}

/// The fraction of communication latency hidden by overlap over a whole
/// run (`total` is the folded table's grand total): the complement of
/// [`exposed_pct`]. `None` when the trace has no overlap spans (blocking
/// run — nothing was hidden).
pub fn comm_hidden(total: &Cell) -> Option<f64> {
    if total.overlap.is_zero() {
        return None;
    }
    Some(1.0 - exposed_pct(total.wait, total.overlap)? / 100.0)
}

/// Render the "% of comm hidden" summary line, when overlap spans exist.
fn render_comm_hidden(total: &Cell) -> Option<String> {
    let hidden = comm_hidden(total)?;
    Some(format!(
        "comm hidden by overlap: {:.1}% ({:.2}ms interior compute during exchange vs {:.2}ms blocked)\n",
        hidden * 100.0,
        total.overlap.as_secs_f64() * 1e3,
        total.wait.as_secs_f64() * 1e3,
    ))
}

/// Cross-validation verdict for one communication phase: the static
/// per-visit traffic forecast, scaled to the visit count inferred from
/// the trace, against the measured messages and wire bytes.
#[derive(Debug, Clone)]
pub struct PhaseCheck {
    /// Phase label (`sync_<id>`, `pre_<id>`, …).
    pub phase: String,
    /// Inferred visit count: measured messages / predicted messages per
    /// visit.
    pub visits: u64,
    /// Whether the measured message count is an exact multiple of the
    /// per-visit prediction (it must be — the program visits a phase a
    /// whole number of times).
    pub structure_ok: bool,
    /// Predicted messages per visit, summed over ranks.
    pub msgs_per_visit: u64,
    /// Measured messages, summed over ranks.
    pub msgs_measured: u64,
    /// Wire bytes: `visits × per-visit payload` (plus frame headers over
    /// TCP) against the bytes the trace recorded.
    pub bytes: Comparison,
    /// Cost-model communication time for the inferred visits. The model
    /// prices the paper's 10 Mbit shared Ethernet, not this machine —
    /// informational, never checked against the tolerance.
    pub model_seconds: f64,
    /// Measured communication + wait seconds in this phase (all ranks).
    pub measured_seconds: f64,
}

impl PhaseCheck {
    /// Whether the measurement agrees with the prediction.
    pub fn ok(&self) -> bool {
        self.structure_ok && self.bytes.within_tolerance()
    }
}

/// The cost model's communication time for `visits` visits of a phase.
fn model_phase_seconds(net: &NetworkModel, f: &PhaseForecast, visits: u64) -> f64 {
    if f.phase.starts_with("reduce_") {
        let ranks = f.per_rank.iter().filter(|t| t.events > 0).count() as u64;
        if ranks > 1 {
            return visits as f64 * 2.0 * (ranks - 1) as f64 * net.latency;
        }
        return 0.0;
    }
    let msgs_max = f.per_rank.iter().map(|t| t.frames_out).max().unwrap_or(0);
    let total: u64 = f.per_rank.iter().map(|t| t.payload_out).sum();
    let max = f.per_rank.iter().map(|t| t.payload_out).max().unwrap_or(0);
    visits as f64 * net.exchange_time(msgs_max, total, max)
}

/// The per-frame wire overhead a transport adds on top of the payload
/// (what the advisor's divergence math needs to price TCP framing).
pub fn frame_header_bytes(transport: &str) -> u64 {
    if transport == "tcp" {
        HEADER_LEN as u64
    } else {
        0
    }
}

/// Cross-validate the traffic forecast (and, informationally, the
/// cluster cost model) against a measured merged trace. `tolerance` is
/// the maximum relative error accepted on wire bytes. Also flags phases
/// the trace measured but the forecast never predicted. The divergence
/// math itself lives in [`autocfd_advisor::divergence()`]; this wrapper
/// adds the forecast, the cost-model seconds, and the `--check`
/// verdict shape.
pub fn cross_validate(
    compiled: &Compiled,
    merged: &MergedTrace,
    tolerance: f64,
) -> Result<Vec<PhaseCheck>, String> {
    let fc = forecast(&compiled.parallel_file, &compiled.spmd_plan).map_err(|e| e.to_string())?;
    let metrics = phase_metrics(merged);
    let net = NetworkModel::ethernet_10mbit();
    let framing = frame_header_bytes(&merged.transport);
    let checks = autocfd_advisor::divergence(&fc, &metrics, framing)
        .into_iter()
        .map(|d| {
            let f = fc.iter().find(|f| f.phase == d.phase);
            PhaseCheck {
                visits: d.visits,
                structure_ok: d.structure_ok,
                msgs_per_visit: f.map(PhaseForecast::events).unwrap_or(0),
                msgs_measured: d.msgs_measured,
                bytes: Comparison {
                    label: format!("{} wire bytes", d.phase),
                    predicted: d.bytes_predicted as f64,
                    measured: d.bytes_measured as f64,
                    tolerance,
                },
                model_seconds: f
                    .map(|f| model_phase_seconds(&net, f, d.visits))
                    .unwrap_or(0.0),
                measured_seconds: metrics
                    .iter()
                    .find(|m| m.phase == d.phase)
                    .map(|m| m.total())
                    .map(|t| (t.comm + t.wait).as_secs_f64())
                    .unwrap_or(0.0),
                phase: d.phase,
            }
        })
        .collect();
    Ok(checks)
}

/// Render the predicted-vs-measured table, one row per communication
/// phase.
pub fn render_cross_validation(checks: &[PhaseCheck]) -> String {
    let name_w = checks
        .iter()
        .map(|c| c.phase.len())
        .chain(["phase".len()])
        .max()
        .unwrap_or(5);
    let mut out = format!(
        "{:name_w$}  {:>6}  {:>15}  {:>21}  {:>7}  {:>19}  {:>7}\n",
        "phase", "visits", "msgs pred/meas", "bytes pred/meas", "err", "model/meas time", "verdict",
    );
    for c in checks {
        out.push_str(&format!(
            "{:name_w$}  {:>6}  {:>15}  {:>21}  {:>6.1}%  {:>19}  {:>7}\n",
            c.phase,
            c.visits,
            format!("{}/{}", c.visits * c.msgs_per_visit, c.msgs_measured),
            format!("{}/{}", c.bytes.predicted as u64, c.bytes.measured as u64),
            (c.bytes.error() * 100.0).min(999.9),
            format!(
                "{:.1}ms/{:.1}ms",
                c.model_seconds * 1e3,
                c.measured_seconds * 1e3
            ),
            if c.ok() { "ok" } else { "OFF" },
        ));
    }
    out
}

/// One rank's telemetry spool, summarized for `acfc top` and the
/// `acfc stats` health section.
#[derive(Debug, Clone)]
pub struct RankTelemetry {
    /// Rank the spool belongs to.
    pub rank: usize,
    /// Newest frame in the spool.
    pub latest: StatFrame,
    /// Frames parsed from the spool.
    pub frames: usize,
    /// Unparsable lines skipped (usually one line torn mid-write by a
    /// live rank).
    pub skipped: usize,
    /// Largest gap between consecutive frame timestamps, milliseconds —
    /// the coverage-gap signal (a rank that stopped publishing mid-run).
    pub max_gap_ms: u64,
    /// Milliseconds covered from the first to the newest frame.
    pub span_ms: u64,
    /// Age of the spool file's last write, when the filesystem reports
    /// modification times — the liveness signal `acfc top` renders.
    pub age: Option<Duration>,
}

impl RankTelemetry {
    /// The warn-column verdict `acfc stats` renders: `gap!` on a
    /// coverage hole, `torn!` on unparsable spool lines, `-` when
    /// healthy.
    pub fn warn(&self) -> &'static str {
        if self.has_coverage_gap() {
            "gap!"
        } else if self.skipped > 1 {
            // one torn line is a live writer, several are corruption
            "torn!"
        } else {
            "-"
        }
    }

    /// Whether the spool has a coverage hole: one inter-frame gap
    /// swallowing more than half the covered span (only judged once the
    /// span is long enough to make cadence meaningful).
    pub fn has_coverage_gap(&self) -> bool {
        self.span_ms >= 1_000 && self.max_gap_ms as f64 > self.span_ms as f64 * 0.5
    }
}

/// Scan `dir` for telemetry spool files (`telemetry-rank-<r>.jsonl`) and
/// summarize each rank's newest state, sorted by rank. An absent
/// directory or a directory without spools is an empty result, not an
/// error — telemetry is optional.
pub fn scan_telemetry(dir: &Path) -> Vec<RankTelemetry> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(rank) = name
            .strip_prefix("telemetry-rank-")
            .and_then(|r| r.strip_suffix(".jsonl"))
            .and_then(|r| r.parse::<usize>().ok())
        else {
            continue;
        };
        let Ok((frames, skipped)) = read_spool(&path) else {
            continue;
        };
        let Some(latest) = frames.last().cloned() else {
            continue;
        };
        let max_gap_ms = frames
            .windows(2)
            .map(|w| w[1].at_ms.saturating_sub(w[0].at_ms))
            .max()
            .unwrap_or(0);
        let span_ms = latest
            .at_ms
            .saturating_sub(frames.first().map(|f| f.at_ms).unwrap_or(0));
        let age = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok());
        rows.push(RankTelemetry {
            rank,
            latest,
            frames: frames.len(),
            skipped,
            max_gap_ms,
            span_ms,
            age,
        });
    }
    rows.sort_by_key(|r| r.rank);
    rows
}

/// Telemetry health verdicts for `--check`: coverage gaps fail; torn
/// lines and idleness only warn.
pub fn telemetry_failures(rows: &[RankTelemetry]) -> Vec<String> {
    rows.iter()
        .filter(|r| r.has_coverage_gap())
        .map(|r| {
            format!(
                "rank {}: telemetry coverage gap — {} ms silent out of {} ms covered",
                r.rank, r.max_gap_ms, r.span_ms
            )
        })
        .collect()
}

/// Render the `acfc stats` telemetry-health table: one row per rank with
/// the coverage warn column.
pub fn render_telemetry_health(rows: &[RankTelemetry]) -> String {
    let mut out = format!(
        "{:>4}  {:>6}  {:>9}  {:>6}  {:>6}\n",
        "rank", "frames", "gap ms", "ckpt", "warn"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>4}  {:>6}  {:>9}  {:>6}  {:>6}\n",
            r.rank,
            r.frames,
            r.max_gap_ms,
            r.latest.checkpoint_epoch,
            r.warn(),
        ));
    }
    out
}

/// The counted forward-compat warning for journal reads: how many lines
/// the merger skipped as unrecognized (newer schema, unknown kinds).
/// `None` when nothing was skipped.
pub fn skipped_warning(merged: &MergedTrace) -> Option<String> {
    if merged.skipped == 0 {
        return None;
    }
    Some(format!(
        "warning: skipped {} unrecognized journal line(s) (written by a newer schema?)",
        merged.skipped
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};

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

    #[test]
    fn forecast_matches_measured_traffic_exactly() {
        let c = compile(JACOBI, &CompileOptions::with_partition(&[3, 1])).unwrap();
        let runs = c.run_parallel_traced(vec![]);
        let dir = std::env::temp_dir().join(format!("acf-obs-{}", std::process::id()));
        clean_trace_dir(&dir).unwrap();
        for (rank, run) in runs.iter().enumerate() {
            assert!(run.outcome.is_ok());
            write_rank_run(&dir, "inproc", rank, runs.len(), run).unwrap();
        }
        let merged = load_merged(&dir).unwrap();
        assert!(merged.complete);
        let checks = cross_validate(&c, &merged, 0.0).unwrap();
        assert!(!checks.is_empty());
        for ch in &checks {
            assert!(ch.ok(), "{}: {ch:?}", ch.phase);
            assert_eq!(
                ch.bytes.error(),
                0.0,
                "{}: bytes must match exactly",
                ch.phase
            );
        }
        // the jacobi stencil syncs every iteration: some sync phase must
        // show 8 visits (others may have been hoisted out of the loop)
        let max_visits = checks
            .iter()
            .filter(|c| c.phase.starts_with("sync_"))
            .map(|c| c.visits)
            .max()
            .unwrap();
        assert_eq!(max_visits, 8, "{}", render_cross_validation(&checks));
        let rendered = render_cross_validation(&checks);
        assert!(rendered.contains("ok"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlap_run_is_bit_exact_and_reports_hidden_comm() {
        let c = compile(JACOBI, &CompileOptions::with_partition(&[3, 1])).unwrap();
        assert!(
            !c.spmd_plan.overlaps.is_empty(),
            "the jacobi stencil nest must be recognized as overlappable"
        );
        // bit-exactness against the sequential program with overlap on
        let seq = c.run_sequential(vec![]).unwrap();
        let par = c.run_parallel_opts(vec![], true).unwrap();
        let diff = autocfd_interp::verify_owned_regions(&seq, &par, &c.spmd_plan, 0.0).unwrap();
        assert_eq!(diff, 0.0, "overlapped execution must stay bit-identical");

        // the trace carries overlap spans, the forecast still matches
        // exactly, and the report prints the %-hidden figure
        let runs = c.run_parallel_traced_opts(vec![], true);
        let dir = std::env::temp_dir().join(format!("acf-obs-ovl-{}", std::process::id()));
        clean_trace_dir(&dir).unwrap();
        for (rank, run) in runs.iter().enumerate() {
            assert!(run.outcome.is_ok());
            write_rank_run(&dir, "inproc", rank, runs.len(), run).unwrap();
        }
        let merged = load_merged(&dir).unwrap();
        let total = fold(&merged).total();
        assert!(
            comm_hidden(&total).is_some(),
            "overlap spans must be recorded: {total:?}"
        );
        for ch in cross_validate(&c, &merged, 0.0).unwrap() {
            assert!(ch.ok(), "{}: {ch:?}", ch.phase);
        }
        let report = render_report(&merged);
        assert!(report.contains("comm hidden by overlap"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_scan_summarizes_and_flags_gaps() {
        use autocfd_runtime::telemetry::{encode_stat_frame, spool_path, TELEMETRY_SCHEMA};
        let dir = std::env::temp_dir().join(format!("acf-obs-telem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |rank: usize, seq: u64, at_ms: u64| StatFrame {
            schema: TELEMETRY_SCHEMA,
            rank,
            seq,
            at_ms,
            phase: "sync_0".into(),
            compute_us: 100,
            wait_us: 10,
            overlap_us: 0,
            comm_us: 5,
            peers: vec![],
            checkpoint_epoch: 3,
            engine: "kernel".into(),
            queue_depth: 0,
            dropped: 0,
        };
        // rank 0: healthy; rank 1: a coverage hole
        let healthy: Vec<String> = (0..4)
            .map(|i| encode_stat_frame(&mk(0, i, 100 * i)))
            .collect();
        std::fs::write(spool_path(&dir, 0), healthy.join("\n")).unwrap();
        let gappy = [
            encode_stat_frame(&mk(1, 0, 0)),
            encode_stat_frame(&mk(1, 1, 100)),
            encode_stat_frame(&mk(1, 2, 2_000)),
        ];
        std::fs::write(spool_path(&dir, 1), gappy.join("\n")).unwrap();

        assert!(scan_telemetry(Path::new("/nonexistent-acf")).is_empty());
        let rows = scan_telemetry(&dir);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].rank, 0);
        assert_eq!(rows[0].frames, 4);
        assert_eq!(rows[0].max_gap_ms, 100);
        assert!(!rows[0].has_coverage_gap());
        assert_eq!(rows[0].warn(), "-");
        assert_eq!(rows[1].max_gap_ms, 1_900);
        assert_eq!(rows[1].span_ms, 2_000);
        assert!(rows[1].has_coverage_gap());
        assert_eq!(rows[1].warn(), "gap!");

        let failures = telemetry_failures(&rows);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("rank 1"), "{failures:?}");
        assert!(failures[0].contains("coverage gap"), "{failures:?}");

        let table = render_telemetry_health(&rows);
        assert!(table.contains("warn"), "{table}");
        assert!(table.contains("gap!"), "{table}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn skipped_warning_counts_lenient_reads() {
        let merged = MergedTrace {
            traces: vec![],
            phase_names: vec![],
            transport: "inproc".into(),
            complete: true,
            skipped: 0,
        };
        assert!(skipped_warning(&merged).is_none());
        let merged = MergedTrace {
            skipped: 3,
            ..merged
        };
        assert!(skipped_warning(&merged).unwrap().contains("3"));
    }

    #[test]
    fn report_renders_all_sections() {
        let c = compile(JACOBI, &CompileOptions::with_partition(&[2, 2])).unwrap();
        let runs = c.run_parallel_traced(vec![]);
        let dir = std::env::temp_dir().join(format!("acf-obs-rep-{}", std::process::id()));
        clean_trace_dir(&dir).unwrap();
        for (rank, run) in runs.iter().enumerate() {
            write_rank_run(&dir, "inproc", rank, runs.len(), run).unwrap();
        }
        let merged = load_merged(&dir).unwrap();
        let report = render_report(&merged);
        assert!(report.contains("rank 0 |"), "timeline present:\n{report}");
        assert!(report.contains("covered"), "breakdown present:\n{report}");
        assert!(report.contains("compute"), "metrics present:\n{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
