//! Load-imbalance and exposed-communication diagnosis.
//!
//! Reads the folded metrics table ([`autocfd_runtime::export::fold`])
//! and derives the three observations the advisor reasons about:
//! compute-span skew (who is the straggler and by how much), critical-
//! path attribution (which phase the slowest rank actually spends the
//! run in), and exposed communication (how much of each sync's wait
//! latency the overlap machinery failed to hide).

use std::collections::HashMap;
use std::time::Duration;

use autocfd_runtime::export::{exposed_pct, fold, imbalance, percentiles, Cell, PhaseRow};
use autocfd_runtime::journal::MergedTrace;
use autocfd_runtime::trace::EventKind;

/// The rank with the largest entry of a per-rank work series, or `None`
/// when the series is all zero.
pub(crate) fn straggler(work: &[Duration]) -> Option<usize> {
    let (rank, max) = work.iter().enumerate().max_by_key(|(_, c)| **c)?;
    (!max.is_zero()).then_some(rank)
}

/// The slowest rank's busy time in a phase — the phase's contribution
/// to the run's critical path.
fn critical_busy(row: &PhaseRow) -> Duration {
    row.cells.iter().map(Cell::busy).max().unwrap_or_default()
}

/// The full diagnosis of one merged trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Rank count.
    pub ranks: usize,
    /// Transport the run used (from the journal headers).
    pub transport: String,
    /// Whether every rank's journal carried a footer.
    pub complete: bool,
    /// Merged makespan: latest event end minus earliest event start.
    pub wall: Duration,
    /// The folded table's rows: a cell per rank for every phase, in
    /// cross-rank first-appearance order.
    pub phases: Vec<PhaseRow>,
    /// Whole-run work (compute + overlap) total per rank.
    pub compute_per_rank: Vec<Duration>,
    /// Whole-run compute skew (max over mean); `1.0` for a run with no
    /// compute at all.
    pub imbalance: f64,
    /// The rank with the largest whole-run compute total, when any
    /// compute was recorded.
    pub straggler: Option<usize>,
    /// Whole-run exposed-communication share, when the run had any
    /// wait or overlap.
    pub exposed_pct: Option<f64>,
    /// The *measured* cross-rank critical path: the longest busy chain
    /// through the send→recv causality edges the runtime stamped into
    /// the trace (journal schema 3). Unlike [`Diagnosis::critical_path`],
    /// which sums each phase's slowest rank, this follows actual message
    /// dependencies — a wait only lengthens the path when the matching
    /// send really gated it. `None` when no recv carried a matched edge
    /// (pre-v3 journals, or a run with no point-to-point traffic).
    pub critical_path_measured: Option<Duration>,
    /// Recv events whose `(peer, seq)` stamp paired with a send.
    pub edges_matched: usize,
    /// Recv events with no pairable stamp: unstamped (old journal) or
    /// the sender's journal was truncated before the matching send.
    pub edges_unmatched: usize,
}

impl Diagnosis {
    /// Total compute across all ranks and phases.
    pub fn total_compute(&self) -> Duration {
        self.compute_per_rank.iter().sum()
    }

    /// Sum of every phase's slowest-rank busy time — the critical path
    /// as the phase-ordered trace saw it.
    pub fn critical_path(&self) -> Duration {
        self.phases.iter().map(critical_busy).sum()
    }

    /// One phase's share of the critical path, in percent.
    pub fn critical_share(&self, phase: usize) -> f64 {
        let total = self.critical_path().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        100.0 * critical_busy(&self.phases[phase]).as_secs_f64() / total
    }
}

/// The longest busy chain through the measured send→recv causality
/// edges: a dataflow replay of the merged trace. Each rank's events run
/// in order; `Compute`/`Overlap`/`Send`/`Reduce` spans add busy time,
/// `Recv` adds none but cannot complete before the send it pairs with
/// (by `(peer, seq)`), and `Barrier` joins the local chain only (no
/// stamped edges). Returns the path plus matched/unmatched edge counts;
/// the path is `None` when nothing matched.
fn measured_critical_path(merged: &MergedTrace) -> (Option<Duration>, usize, usize) {
    let n = merged.traces.len();
    let mut next = vec![0usize; n]; // next unprocessed event per rank
    let mut done = vec![Duration::ZERO; n]; // chain completion per rank
    let mut send_done: HashMap<(usize, u64), Duration> = HashMap::new();
    let mut matched = 0usize;
    let mut unmatched = 0usize;
    loop {
        let mut progress = false;
        for r in 0..n {
            while let Some(ev) = merged.traces[r].get(next[r]) {
                match ev.kind {
                    EventKind::Recv => {
                        let edge = match (ev.peer, ev.seq) {
                            (Some(p), Some(s)) if p < n => Some((p, s)),
                            _ => None,
                        };
                        match edge {
                            Some(key) => {
                                if let Some(&sd) = send_done.get(&key) {
                                    done[r] = done[r].max(sd);
                                    matched += 1;
                                } else if next[key.0] < merged.traces[key.0].len() {
                                    break; // sender still replaying: revisit
                                } else {
                                    unmatched += 1; // sender exhausted: no pair
                                }
                            }
                            None => unmatched += 1,
                        }
                    }
                    EventKind::Barrier => {}
                    EventKind::Send | EventKind::Reduce => {
                        done[r] += ev.span();
                        if let (EventKind::Send, Some(s)) = (ev.kind, ev.seq) {
                            send_done.insert((r, s), done[r]);
                        }
                    }
                    EventKind::Compute | EventKind::Overlap => done[r] += ev.span(),
                }
                next[r] += 1;
                progress = true;
            }
        }
        if progress {
            continue;
        }
        // No rank can move: every stuck rank heads a recv whose sender
        // is itself stuck (a cycle the stamps cannot order, e.g. from a
        // truncated journal). Break it at the first stuck recv.
        match (0..n).find(|&r| next[r] < merged.traces[r].len()) {
            Some(r) => {
                unmatched += 1;
                next[r] += 1;
            }
            None => break,
        }
    }
    let path = done.into_iter().max().filter(|_| matched > 0);
    (path, matched, unmatched)
}

/// Diagnose a merged trace: fold it into the metrics table and derive
/// skew, straggler, and exposure from the cells.
pub fn diagnose(merged: &MergedTrace) -> Diagnosis {
    let table = fold(merged);
    let compute_per_rank: Vec<Duration> = (0..table.ranks())
        .map(|r| table.rank_total(r).work())
        .collect();
    let total = table.total();
    let (critical_path_measured, edges_matched, edges_unmatched) = measured_critical_path(merged);
    Diagnosis {
        ranks: table.ranks(),
        transport: merged.transport.clone(),
        complete: merged.complete,
        wall: table.makespan(),
        imbalance: imbalance(&compute_per_rank).unwrap_or(1.0),
        straggler: straggler(&compute_per_rank),
        exposed_pct: exposed_pct(total.wait, total.overlap),
        compute_per_rank,
        phases: table.rows,
        critical_path_measured,
        edges_matched,
        edges_unmatched,
    }
}

/// The advisor's one-line verdict over a diagnosis: the phase with the
/// largest critical-path contribution, its slowest-rank busy time, and
/// its share of the critical path in percent. `None` for an empty
/// trace.
pub fn hot_phase(diag: &Diagnosis) -> Option<(&str, Duration, f64)> {
    let (idx, row) = diag
        .phases
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| critical_busy(p))?;
    let busy = critical_busy(row);
    (!busy.is_zero()).then(|| (row.phase.as_str(), busy, diag.critical_share(idx)))
}

fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

/// Render the diagnosis as the human-readable advisor report sections
/// (load balance table, then exposed communication per sync).
pub fn render_diagnosis(diag: &Diagnosis) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "load balance ({} ranks, transport {}, wall {})\n",
        diag.ranks,
        diag.transport,
        fmt_dur(diag.wall)
    ));
    out.push_str(&format!(
        "{:<16} {:>10} {:>10} {:>6} {:>9} {:>20} {:>6}\n",
        "phase", "cpu-max", "cpu-mean", "imb", "straggler", "busy p50/p95", "crit%"
    ));
    for (i, row) in diag.phases.iter().enumerate() {
        let work = row.work_per_rank();
        let mean = if diag.ranks == 0 {
            Duration::ZERO
        } else {
            work.iter().sum::<Duration>() / diag.ranks as u32
        };
        let max = work.iter().copied().max().unwrap_or_default();
        let mut busy: Vec<Duration> = row.cells.iter().map(Cell::busy).collect();
        let busy = percentiles(&mut busy);
        out.push_str(&format!(
            "{:<16} {:>10} {:>10} {:>6} {:>9} {:>20} {:>6}\n",
            row.phase,
            fmt_dur(max),
            fmt_dur(mean),
            imbalance(&work)
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
            straggler(&work)
                .map(|r| format!("r{r}"))
                .unwrap_or_else(|| "-".into()),
            format!("{}/{}", fmt_dur(busy.p50), fmt_dur(busy.p95)),
            format!("{:.1}", diag.critical_share(i)),
        ));
    }
    out.push_str(&format!(
        "overall: compute imbalance {:.2}{}{}\n",
        diag.imbalance,
        diag.straggler
            .map(|r| format!(", straggler rank {r}"))
            .unwrap_or_default(),
        diag.exposed_pct
            .map(|p| format!(", {p:.1}% of comm latency exposed"))
            .unwrap_or_default(),
    ));
    if let Some(measured) = diag.critical_path_measured {
        out.push_str(&format!(
            "critical path: {} phase-estimated, {} edge-measured \
             ({} send→recv edges{})\n",
            fmt_dur(diag.critical_path()),
            fmt_dur(measured),
            diag.edges_matched,
            if diag.edges_unmatched > 0 {
                format!(", {} unmatched", diag.edges_unmatched)
            } else {
                String::new()
            },
        ));
    }

    let comm: Vec<(&PhaseRow, Cell)> = diag
        .phases
        .iter()
        .map(|p| (p, p.total()))
        .filter(|(_, t)| t.is_comm())
        .collect();
    if !comm.is_empty() {
        out.push_str("\nexposed communication (wait attributed to the causing sync)\n");
        out.push_str(&format!(
            "{:<16} {:>10} {:>10} {:>8} {:>10} {:>8}\n",
            "sync", "wait", "overlap", "exposed", "bytes", "msgs"
        ));
        for (row, t) in comm {
            out.push_str(&format!(
                "{:<16} {:>10} {:>10} {:>8} {:>10} {:>8}\n",
                row.phase,
                fmt_dur(t.wait),
                fmt_dur(t.overlap),
                exposed_pct(t.wait, t.overlap)
                    .map(|p| format!("{p:.1}%"))
                    .unwrap_or_else(|| "-".into()),
                t.bytes,
                t.msgs,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_runtime::trace::TraceEvent;

    fn ev(kind: EventKind, start_us: u64, end_us: u64, phase: u32, bytes: usize) -> TraceEvent {
        TraceEvent {
            kind,
            start: Duration::from_micros(start_us),
            end: Duration::from_micros(end_us),
            peer: None,
            elems: bytes / 8,
            bytes,
            phase,
            seq: None,
        }
    }

    fn skewed_two_rank() -> MergedTrace {
        // Rank 0: 100µs compute then 300µs wait in sync_0.
        // Rank 1: 400µs compute then sends in sync_0.
        MergedTrace {
            traces: vec![
                vec![
                    ev(EventKind::Compute, 0, 100, 0, 0),
                    ev(EventKind::Recv, 100, 400, 1, 80),
                ],
                vec![
                    ev(EventKind::Compute, 0, 400, 0, 0),
                    ev(EventKind::Send, 400, 410, 1, 80),
                ],
            ],
            phase_names: vec![
                vec!["main".into(), "sync_0".into()],
                vec!["main".into(), "sync_0".into()],
            ],
            transport: "inproc".into(),
            complete: true,
            skipped: 0,
        }
    }

    #[test]
    fn diagnose_finds_straggler_and_exposure() {
        let d = diagnose(&skewed_two_rank());
        assert_eq!(d.ranks, 2);
        assert_eq!(d.straggler, Some(1));
        // max 400µs / mean 250µs
        assert!(
            (d.imbalance - 1.6).abs() < 1e-9,
            "imbalance {}",
            d.imbalance
        );
        // All wait, no overlap: fully exposed.
        assert_eq!(d.exposed_pct, Some(100.0));
        let sync = d.phases.iter().find(|p| p.phase == "sync_0").unwrap();
        let t = sync.total();
        assert_eq!(exposed_pct(t.wait, t.overlap), Some(100.0));
        assert_eq!(t.bytes, 160);
        assert_eq!(t.msgs, 2);
        assert_eq!(d.wall, Duration::from_micros(410));
    }

    #[test]
    fn overlap_reduces_exposure() {
        let mut m = skewed_two_rank();
        // Rank 0 hides 300µs of the wait behind interior compute.
        m.traces[0].push(ev(EventKind::Overlap, 100, 400, 1, 0));
        let d = diagnose(&m);
        let sync = d
            .phases
            .iter()
            .find(|p| p.phase == "sync_0")
            .unwrap()
            .total();
        let exposed = exposed_pct(sync.wait, sync.overlap).unwrap();
        assert!((exposed - 50.0).abs() < 1e-9, "exposed {exposed}");
    }

    #[test]
    fn hot_phase_names_the_critical_phase() {
        let d = diagnose(&skewed_two_rank());
        let (name, busy, share) = hot_phase(&d).unwrap();
        // main: slowest rank busy 400µs; sync_0: 300µs.
        assert_eq!(name, "main");
        assert_eq!(busy, Duration::from_micros(400));
        assert!(share > 50.0);
    }

    #[test]
    fn unstamped_trace_has_no_measured_path() {
        let d = diagnose(&skewed_two_rank());
        assert_eq!(d.critical_path_measured, None);
        assert_eq!(d.edges_matched, 0);
        // the one recv carried no (peer, seq) stamp
        assert_eq!(d.edges_unmatched, 1);
    }

    #[test]
    fn measured_path_follows_send_recv_edges() {
        // Rank 1 computes 400µs then sends; rank 0 computes 100µs,
        // waits 300µs for that message, then computes 50µs more. The
        // phase-sum estimate charges main its slowest rank (400µs) AND
        // sync_0 its slowest rank (300µs wait) = 750µs; the edge walk
        // knows the wait and the send are the *same* serialization:
        // 400µs compute + 10µs send + 50µs post-recv compute = 460µs.
        let mut m = skewed_two_rank();
        m.traces[0][1].peer = Some(1);
        m.traces[0][1].seq = Some(1);
        m.traces[1][1].peer = Some(0);
        m.traces[1][1].seq = Some(1);
        m.traces[0].push(ev(EventKind::Compute, 400, 450, 0, 0));
        let d = diagnose(&m);
        assert_eq!(d.edges_matched, 1);
        assert_eq!(d.edges_unmatched, 0);
        let measured = d.critical_path_measured.expect("one edge matched");
        assert_eq!(measured, Duration::from_micros(460));
        assert!(
            measured < d.critical_path(),
            "edge walk must beat the phase-sum estimate: {measured:?} vs {:?}",
            d.critical_path()
        );
    }

    #[test]
    fn unpaired_stamp_counts_as_unmatched() {
        // recv claims (peer 1, seq 9) but rank 1 never sent seq 9
        let mut m = skewed_two_rank();
        m.traces[0][1].peer = Some(1);
        m.traces[0][1].seq = Some(9);
        let d = diagnose(&m);
        assert_eq!(d.edges_matched, 0);
        assert_eq!(d.edges_unmatched, 1);
        assert_eq!(d.critical_path_measured, None);
    }

    #[test]
    fn render_mentions_straggler() {
        let d = diagnose(&skewed_two_rank());
        let text = render_diagnosis(&d);
        assert!(text.contains("straggler rank 1"), "{text}");
        assert!(text.contains("exposed"), "{text}");
    }
}
