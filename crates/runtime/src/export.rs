//! Trace exporters and the metrics model.
//!
//! Every tool that answers "where did the time go" reads one table: a
//! [`Cell`] per (phase, rank), filled by [`fold`] through the single
//! classifier [`Cell::add`]. What the tools print are projections:
//!
//! * [`phase_metrics`] / [`render_phase_metrics`] — the rows, each
//!   summed over ranks, plus wait/compute histograms (p50 / p95 / max);
//! * [`rank_breakdown`] / [`render_rank_breakdown`] — a column summed
//!   over phases against the rank's wall time, the coverage check the
//!   CI smoke test asserts on;
//! * [`crate::trace::render_wire_table`] — the `msgs`/`bytes` of every
//!   cell that communicated;
//! * the advisor's diagnosis and the live [`crate::StatFrame`] — the
//!   same cells, per phase and per rank;
//! * the two derived ratios, each defined once: [`imbalance`] and
//!   [`exposed_pct`].
//!
//! [`chrome_trace`] exports the merged timeline itself: Chrome
//! trace-event JSON with one track per rank, openable in Perfetto
//! (`ui.perfetto.dev`) or `chrome://tracing`.

use crate::journal::MergedTrace;
use crate::trace::{phase_label, EventKind, TraceEvent};
use serde::json::Value;
use std::time::Duration;

/// The flow id tying a send `ph:"s"` to its recv `ph:"f"`: the sender's
/// rank in the high bits, its per-endpoint sequence number in the low
/// 40. Both sides derive the same id independently (the recv carries
/// the sender's rank as `peer` and the sender's seq), so no cross-rank
/// coordination is needed at export time.
fn flow_id(sender: usize, seq: u64) -> i128 {
    ((sender as i128) << 40) | (seq as i128 & ((1 << 40) - 1))
}

/// Render a merged trace in Chrome trace-event JSON (object form, `"X"`
/// complete events, microsecond timestamps). Tracks: `pid` 0, one `tid`
/// per rank plus a `thread_name` metadata record; event names are
/// `<kind> <phase>` so Perfetto groups by activity.
///
/// Causality-stamped messages (journal schema 3) additionally emit flow
/// events — `ph:"s"` anchored in the send slice and `ph:"f"` /
/// `bp:"e"` anchored in the matching recv slice — so Perfetto draws a
/// send→recv arrow for every point-to-point message.
pub fn chrome_trace(merged: &MergedTrace) -> String {
    let mut events = Vec::new();
    for (rank, trace) in merged.traces.iter().enumerate() {
        events.push(Value::obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::Int(0)),
            ("tid", Value::Int(rank as i128)),
            (
                "args",
                Value::obj(vec![("name", Value::Str(format!("rank {rank}")))]),
            ),
        ]));
        let names = &merged.phase_names[rank];
        for e in trace {
            let phase = phase_label(names, e.phase);
            let mut args = vec![("phase", Value::Str(phase.clone()))];
            if let Some(p) = e.peer {
                args.push(("peer", Value::Int(p as i128)));
            }
            if e.elems > 0 {
                args.push(("elems", Value::Int(e.elems as i128)));
            }
            if e.bytes > 0 {
                args.push(("bytes", Value::Int(e.bytes as i128)));
            }
            events.push(Value::obj(vec![
                ("name", Value::Str(format!("{} {}", e.kind.name(), phase))),
                ("cat", Value::Str(e.kind.name().into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(e.start.as_nanos() as f64 / 1000.0)),
                ("dur", Value::Float(e.span().as_nanos() as f64 / 1000.0)),
                ("pid", Value::Int(0)),
                ("tid", Value::Int(rank as i128)),
                ("args", Value::obj(args)),
            ]));
            let flow = match (e.kind, e.peer, e.seq) {
                // the send starts the flow; the arrow leaves its slice
                (EventKind::Send, Some(_), Some(seq)) => Some(("s", flow_id(rank, seq), e.start)),
                // the recv finishes it; `peer` is the *sender*, so both
                // sides compute the same id
                (EventKind::Recv, Some(sender), Some(seq)) => {
                    Some(("f", flow_id(sender, seq), e.end))
                }
                _ => None,
            };
            if let Some((ph, id, ts)) = flow {
                let mut fields = vec![
                    ("name", Value::Str("msg".into())),
                    ("cat", Value::Str("flow".into())),
                    ("ph", Value::Str(ph.into())),
                    ("id", Value::Int(id)),
                    ("ts", Value::Float(ts.as_nanos() as f64 / 1000.0)),
                    ("pid", Value::Int(0)),
                    ("tid", Value::Int(rank as i128)),
                ];
                if ph == "f" {
                    // bind to the enclosing (recv) slice, not the next one
                    fields.push(("bp", Value::Str("e".into())));
                }
                events.push(Value::obj(fields));
            }
        }
    }
    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
    .to_string()
}

/// p50 / p95 / max over a set of span durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// Maximum.
    pub max: Duration,
}

/// Percentiles of a sample set (nearest-rank method; zeros if empty).
pub fn percentiles(samples: &mut [Duration]) -> Percentiles {
    if samples.is_empty() {
        return Percentiles::default();
    }
    samples.sort_unstable();
    let rank = |q: f64| {
        let idx = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
        samples[idx.min(samples.len() - 1)]
    };
    Percentiles {
        p50: rank(0.50),
        p95: rank(0.95),
        max: *samples.last().unwrap(),
    }
}

/// Where [`Cell::add`] put an event's span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// Working: a compute or overlapped-compute span.
    Work,
    /// Communicating: a send or reduce.
    Comm,
    /// Blocked: a receive or barrier wait.
    Wait,
}

/// What one rank did in one phase — the unit of the metrics model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cell {
    /// Compute-span time outside any exchange.
    pub compute: Duration,
    /// Overlapped-compute time: interior work done while halo exchanges
    /// were in flight (communication latency hidden behind computation).
    pub overlap: Duration,
    /// Send/reduce busy time (communication proper).
    pub comm: Duration,
    /// Blocked time (receive + barrier waits).
    pub wait: Duration,
    /// Point-to-point + reduce messages (a barrier is not a message).
    pub msgs: u64,
    /// Wire bytes moved, both directions.
    pub bytes: u64,
    /// Traced events of every kind.
    pub events: usize,
}

impl Cell {
    /// Account one event. This is the only place an [`EventKind`] is
    /// assigned to a time or traffic bucket.
    pub fn add(&mut self, e: &TraceEvent) -> Bucket {
        let span = e.span();
        self.events += 1;
        self.bytes += e.bytes as u64;
        match e.kind {
            EventKind::Compute => {
                self.compute += span;
                Bucket::Work
            }
            EventKind::Overlap => {
                self.overlap += span;
                Bucket::Work
            }
            EventKind::Send | EventKind::Reduce => {
                self.msgs += 1;
                self.comm += span;
                Bucket::Comm
            }
            EventKind::Recv => {
                self.msgs += 1;
                self.wait += span;
                Bucket::Wait
            }
            EventKind::Barrier => {
                self.wait += span;
                Bucket::Wait
            }
        }
    }

    /// Time spent working: `compute + overlap`.
    pub fn work(&self) -> Duration {
        self.compute + self.overlap
    }

    /// Time the trace accounts for: `work + comm + wait`.
    pub fn busy(&self) -> Duration {
        self.work() + self.comm + self.wait
    }

    /// Whether anything was communicated or waited for (a sync / reduce
    /// cell rather than a pure compute one).
    pub fn is_comm(&self) -> bool {
        self.msgs > 0 || !self.wait.is_zero()
    }
}

impl std::ops::AddAssign for Cell {
    fn add_assign(&mut self, o: Cell) {
        self.compute += o.compute;
        self.overlap += o.overlap;
        self.comm += o.comm;
        self.wait += o.wait;
        self.msgs += o.msgs;
        self.bytes += o.bytes;
        self.events += o.events;
    }
}

impl std::iter::Sum for Cell {
    fn sum<I: Iterator<Item = Cell>>(cells: I) -> Cell {
        cells.fold(Cell::default(), |mut acc, c| {
            acc += c;
            acc
        })
    }
}

/// Each entry of a per-rank series over the series' mean; `None` when
/// the series is empty or sums to zero.
pub fn over_mean(per_rank: &[Duration]) -> Option<Vec<f64>> {
    let total: Duration = per_rank.iter().sum();
    if total.is_zero() {
        return None;
    }
    let mean = total.as_secs_f64() / per_rank.len() as f64;
    Some(per_rank.iter().map(|d| d.as_secs_f64() / mean).collect())
}

/// Skew of a per-rank series: its largest entry over its mean (1.0 is
/// perfectly balanced). `None` when the series sums to zero.
pub fn imbalance(per_rank: &[Duration]) -> Option<f64> {
    Some(over_mean(per_rank)?.into_iter().fold(0.0, f64::max))
}

/// Share of communication latency that stayed exposed, in percent:
/// `100·wait / (wait + overlap)`. `None` with neither wait nor overlap.
pub fn exposed_pct(wait: Duration, overlap: Duration) -> Option<f64> {
    let (w, h) = (wait.as_secs_f64(), overlap.as_secs_f64());
    if w + h == 0.0 {
        return None;
    }
    Some(100.0 * w / (w + h))
}

/// One phase of the folded table: a [`Cell`] per rank plus the span
/// samples the histograms need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Phase name.
    pub phase: String,
    /// What each rank did in this phase (index = rank).
    pub cells: Vec<Cell>,
    /// Every individual work (compute / overlap) span.
    pub work_spans: Vec<Duration>,
    /// Every individual wait (receive / barrier) span.
    pub wait_spans: Vec<Duration>,
}

impl PhaseRow {
    /// The phase summed over ranks.
    pub fn total(&self) -> Cell {
        self.cells.iter().copied().sum()
    }

    /// Work time per rank — the series [`imbalance`] is taken over.
    pub fn work_per_rank(&self) -> Vec<Duration> {
        self.cells.iter().map(Cell::work).collect()
    }
}

/// A merged trace folded into the metrics model: `rows[phase].cells[rank]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTable {
    /// Phases in first-appearance order (rank 0's events first, then
    /// names only later ranks recorded); phases without events are
    /// absent.
    pub rows: Vec<PhaseRow>,
    /// Per rank: first event start and last event end (`Duration::MAX`
    /// and zero for an empty trace).
    bounds: Vec<(Duration, Duration)>,
}

impl PhaseTable {
    /// Rank count.
    pub fn ranks(&self) -> usize {
        self.bounds.len()
    }

    /// One rank summed over phases.
    pub fn rank_total(&self, rank: usize) -> Cell {
        self.rows.iter().map(|r| r.cells[rank]).sum()
    }

    /// Everything, summed.
    pub fn total(&self) -> Cell {
        self.rows.iter().map(PhaseRow::total).sum()
    }

    /// A rank's traced wall time: first event start to last event end.
    pub fn wall(&self, rank: usize) -> Duration {
        let (first, last) = self.bounds[rank];
        last.saturating_sub(first)
    }

    /// The run's makespan: earliest start to latest end over all ranks.
    pub fn makespan(&self) -> Duration {
        let first = self.bounds.iter().map(|b| b.0).min().unwrap_or_default();
        let last = self.bounds.iter().map(|b| b.1).max().unwrap_or_default();
        last.saturating_sub(first)
    }

    /// The per-rank projection: each column summed over phases against
    /// the rank's wall time.
    pub fn rank_breakdown(&self) -> Vec<RankBreakdown> {
        (0..self.ranks())
            .map(|rank| {
                let t = self.rank_total(rank);
                RankBreakdown {
                    rank,
                    wall: self.wall(rank),
                    compute: t.work(),
                    comm: t.comm,
                    wait: t.wait,
                }
            })
            .collect()
    }
}

/// Fold per-rank traces into the metrics model. `traces[r]` and
/// `phase_names[r]` are rank `r`'s trace and phase list; a rank with
/// no (or a short) list gets `phase_<i>` labels.
pub fn fold_traces(traces: &[Vec<TraceEvent>], phase_names: &[Vec<String>]) -> PhaseTable {
    let ranks = traces.len();
    let mut rows: Vec<PhaseRow> = Vec::new();
    let mut bounds = vec![(Duration::MAX, Duration::ZERO); ranks];
    for (rank, trace) in traces.iter().enumerate() {
        let names = phase_names.get(rank).map_or(&[][..], Vec::as_slice);
        // this rank's phase index -> table row, resolved on first use
        let mut row_of: Vec<Option<usize>> = Vec::new();
        for e in trace {
            bounds[rank] = (bounds[rank].0.min(e.start), bounds[rank].1.max(e.end));
            let idx = e.phase as usize;
            if row_of.len() <= idx {
                row_of.resize(idx + 1, None);
            }
            let row = *row_of[idx].get_or_insert_with(|| {
                let name = phase_label(names, e.phase);
                rows.iter()
                    .position(|r| r.phase == name)
                    .unwrap_or_else(|| {
                        rows.push(PhaseRow {
                            phase: name,
                            cells: vec![Cell::default(); ranks],
                            work_spans: Vec::new(),
                            wait_spans: Vec::new(),
                        });
                        rows.len() - 1
                    })
            });
            let row = &mut rows[row];
            match row.cells[rank].add(e) {
                Bucket::Work => row.work_spans.push(e.span()),
                Bucket::Wait => row.wait_spans.push(e.span()),
                Bucket::Comm => {}
            }
        }
    }
    PhaseTable { rows, bounds }
}

/// Fold a merged trace into the metrics model.
pub fn fold(merged: &MergedTrace) -> PhaseTable {
    fold_traces(&merged.traces, &merged.phase_names)
}

/// The folded table's rows for a merged trace: the per-phase projection
/// [`render_phase_metrics`] prints and the forecast is checked against.
pub fn phase_metrics(merged: &MergedTrace) -> Vec<PhaseRow> {
    fold(merged).rows
}

fn dur(d: Duration) -> String {
    let us = d.as_nanos() as f64 / 1000.0;
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if us >= 1000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{us:.1}µs")
    }
}

/// Render the table's rows as text: each phase summed over ranks, with
/// its work imbalance and the p50/p95/max of its wait and work spans.
pub fn render_phase_metrics(rows: &[PhaseRow]) -> String {
    let name_w = rows
        .iter()
        .map(|m| m.phase.len())
        .chain(["phase".len()])
        .max()
        .unwrap_or(5);
    let mut out = format!(
        "{:name_w$}  {:>6}  {:>6}  {:>10}  {:>9}  {:>9}  {:>9}  {:>5}  {:>20}  {:>20}\n",
        "phase",
        "events",
        "msgs",
        "bytes",
        "compute",
        "comm",
        "wait",
        "imb",
        "wait p50/p95/max",
        "compute p50/p95/max",
    );
    let hist = |spans: &[Duration]| {
        let p = percentiles(&mut spans.to_vec());
        format!("{}/{}/{}", dur(p.p50), dur(p.p95), dur(p.max))
    };
    for row in rows {
        let t = row.total();
        out.push_str(&format!(
            "{:name_w$}  {:>6}  {:>6}  {:>10}  {:>9}  {:>9}  {:>9}  {:>5}  {:>20}  {:>20}\n",
            row.phase,
            t.events,
            t.msgs,
            t.bytes,
            dur(t.work()),
            dur(t.comm),
            dur(t.wait),
            imbalance(&row.work_per_rank())
                .map(|x| format!("{x:.2}"))
                .unwrap_or_else(|| "-".into()),
            hist(&row.wait_spans),
            hist(&row.work_spans),
        ));
    }
    out
}

/// One rank's wall-time accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankBreakdown {
    /// Rank id (position in the merged trace).
    pub rank: usize,
    /// First event start to last event end.
    pub wall: Duration,
    /// Total work (compute + overlap) time.
    pub compute: Duration,
    /// Total send/reduce busy time.
    pub comm: Duration,
    /// Total blocked (receive + barrier) time.
    pub wait: Duration,
}

impl RankBreakdown {
    /// Fraction of wall time the traced spans account for (0 when the
    /// trace is empty; spans never overlap on a rank, so ≤ ~1).
    pub fn coverage(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        (self.compute + self.comm + self.wait).as_secs_f64() / self.wall.as_secs_f64()
    }
}

/// [`PhaseTable::rank_breakdown`] of per-rank traces.
pub fn rank_breakdown(traces: &[Vec<TraceEvent>]) -> Vec<RankBreakdown> {
    fold_traces(traces, &[]).rank_breakdown()
}

/// Render the per-rank breakdown as a text table with a coverage column.
pub fn render_rank_breakdown(breakdowns: &[RankBreakdown]) -> String {
    let mut out = format!(
        "{:>6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>8}\n",
        "rank", "wall", "compute", "comm", "wait", "covered"
    );
    for b in breakdowns {
        out.push_str(&format!(
            "{:>6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>7.1}%\n",
            b.rank,
            dur(b.wall),
            dur(b.compute),
            dur(b.comm),
            dur(b.wait),
            b.coverage() * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalEvent, JournalHeader, RankJournal, SCHEMA_VERSION};
    use serde::json;

    fn merged_fixture() -> MergedTrace {
        let mk = |rank: usize, events: Vec<JournalEvent>| RankJournal {
            header: JournalHeader {
                version: SCHEMA_VERSION,
                rank,
                ranks: 2,
                transport: "inproc".into(),
                epoch_unix_ns: 0,
            },
            events,
            complete: true,
            skipped: 0,
        };
        let ev = |kind, s: u64, e: u64, phase: &str| JournalEvent {
            kind,
            start: Duration::from_micros(s),
            end: Duration::from_micros(e),
            peer: if kind == EventKind::Send {
                Some(1)
            } else {
                None
            },
            elems: if kind == EventKind::Send { 8 } else { 0 },
            bytes: if kind == EventKind::Send { 64 } else { 0 },
            phase: phase.into(),
            seq: None,
        };
        crate::journal::merge(&[
            mk(
                0,
                vec![
                    ev(EventKind::Compute, 0, 40, "main"),
                    ev(EventKind::Send, 40, 40, "sync_0"),
                    ev(EventKind::Recv, 40, 90, "sync_0"),
                ],
            ),
            mk(
                1,
                vec![
                    ev(EventKind::Compute, 0, 80, "main"),
                    ev(EventKind::Barrier, 80, 100, "sync_0"),
                ],
            ),
        ])
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_track_per_rank() {
        let merged = merged_fixture();
        let text = chrome_trace(&merged);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata records + 5 spans
        assert_eq!(events.len(), 7);
        let tids: Vec<i128> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .map(|e| e.get("tid").unwrap().as_int().unwrap())
            .collect();
        assert!(tids.contains(&0) && tids.contains(&1));
        let meta: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
        assert_eq!(
            meta[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("rank 0")
        );
        // a send span carries its peer and wire bytes
        let send = events
            .iter()
            .find(|e| e.get("cat").map(|c| c.as_str()) == Some(Some("send")))
            .unwrap();
        assert_eq!(
            send.get("args").unwrap().get("peer").unwrap().as_int(),
            Some(1)
        );
        assert_eq!(
            send.get("args").unwrap().get("bytes").unwrap().as_int(),
            Some(64)
        );
    }

    /// Golden test for the flow-event export: a stamped send/recv pair
    /// must produce exactly one `ph:"s"` and one `ph:"f"` with the same
    /// id, and that id must be stable across runs (it is derived from
    /// `(sender_rank, seq)`, nothing time- or order-dependent).
    #[test]
    fn chrome_trace_emits_paired_flow_events_for_stamped_messages() {
        let mk = |rank: usize, events: Vec<JournalEvent>| RankJournal {
            header: JournalHeader {
                version: SCHEMA_VERSION,
                rank,
                ranks: 2,
                transport: "inproc".into(),
                epoch_unix_ns: 0,
            },
            events,
            complete: true,
            skipped: 0,
        };
        let msg = |kind, peer: usize, seq: u64, s: u64, e: u64| JournalEvent {
            kind,
            start: Duration::from_micros(s),
            end: Duration::from_micros(e),
            peer: Some(peer),
            elems: 8,
            bytes: 64,
            phase: "sync_0".into(),
            seq: Some(seq),
        };
        let merged = crate::journal::merge(&[
            mk(0, vec![msg(EventKind::Send, 1, 3, 10, 12)]),
            mk(1, vec![msg(EventKind::Recv, 0, 3, 10, 40)]),
        ]);
        let doc = json::parse(&chrome_trace(&merged)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let flows: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("flow"))
            .collect();
        assert_eq!(flows.len(), 2, "one start + one finish");
        let s = flows
            .iter()
            .find(|f| f.get("ph").unwrap().as_str() == Some("s"))
            .expect("flow start");
        let f = flows
            .iter()
            .find(|f| f.get("ph").unwrap().as_str() == Some("f"))
            .expect("flow finish");
        // the golden id: sender rank 0 << 40 | seq 3
        assert_eq!(s.get("id").unwrap().as_int(), Some(3));
        assert_eq!(f.get("id").unwrap().as_int(), Some(3));
        assert_eq!(s.get("tid").unwrap().as_int(), Some(0), "starts on sender");
        assert_eq!(f.get("tid").unwrap().as_int(), Some(1), "ends on receiver");
        assert_eq!(f.get("bp").unwrap().as_str(), Some("e"), "binds enclosing");
        assert!(s.get("bp").is_none());
        // anchored inside their slices: s at send start (shifted 28 µs
        // by the merge, which pins both ranks' sync_0 to 40 µs), f at
        // recv end
        assert_eq!(s.get("ts").unwrap().as_f64(), Some(38.0));
        assert_eq!(f.get("ts").unwrap().as_f64(), Some(40.0));
        // a second export is byte-identical (stable ordering)
        assert_eq!(chrome_trace(&merged), chrome_trace(&merged));
    }

    #[test]
    fn flow_id_packs_rank_and_seq() {
        assert_eq!(flow_id(0, 1), 1);
        assert_eq!(flow_id(3, 1), (3 << 40) + 1);
        // ids never collide across sender ranks for in-range seqs
        assert_ne!(flow_id(1, 7), flow_id(2, 7));
    }

    #[test]
    fn phase_metrics_split_compute_comm_wait() {
        let merged = merged_fixture();
        let ms = phase_metrics(&merged);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].phase, "main");
        let main = ms[0].total();
        assert_eq!(main.events, 2);
        assert_eq!(main.work(), Duration::from_micros(120));
        assert_eq!(main.wait, Duration::ZERO);
        let work = percentiles(&mut ms[0].work_spans.clone());
        assert_eq!(work.max, Duration::from_micros(80));
        assert_eq!(work.p50, Duration::from_micros(40));
        assert_eq!(ms[1].phase, "sync_0");
        let sync = ms[1].total();
        assert_eq!(sync.msgs, 2, "send + recv; barrier is not a message");
        assert_eq!(sync.bytes, 64);
        assert_eq!(sync.wait, Duration::from_micros(70), "recv 50 + barrier 20");
        let rendered = render_phase_metrics(&ms);
        assert!(rendered.contains("sync_0"), "{rendered}");
        assert!(rendered.lines().next().unwrap().contains("compute"));
    }

    #[test]
    fn overlap_counts_as_compute_and_accumulates_separately() {
        let journal = RankJournal {
            header: JournalHeader {
                version: SCHEMA_VERSION,
                rank: 0,
                ranks: 1,
                transport: "inproc".into(),
                epoch_unix_ns: 0,
            },
            events: vec![
                JournalEvent {
                    kind: EventKind::Overlap,
                    start: Duration::from_micros(0),
                    end: Duration::from_micros(30),
                    peer: None,
                    elems: 0,
                    bytes: 0,
                    phase: "sync_0".into(),
                    seq: None,
                },
                JournalEvent {
                    kind: EventKind::Recv,
                    start: Duration::from_micros(30),
                    end: Duration::from_micros(40),
                    peer: Some(1),
                    elems: 4,
                    bytes: 32,
                    phase: "sync_0".into(),
                    seq: Some(1),
                },
            ],
            complete: true,
            skipped: 0,
        };
        let merged = crate::journal::merge(&[journal]);
        let ms = phase_metrics(&merged);
        assert_eq!(ms.len(), 1);
        let t = ms[0].total();
        assert_eq!(t.overlap, Duration::from_micros(30));
        assert_eq!(t.work(), Duration::from_micros(30), "overlap is work");
        assert_eq!(t.wait, Duration::from_micros(10));
        let b = rank_breakdown(&merged.traces);
        assert_eq!(b[0].compute, Duration::from_micros(30));
        assert_eq!(b[0].wait, Duration::from_micros(10));
        assert!((b[0].coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_breakdown_covers_wall_time() {
        let merged = merged_fixture();
        let b = rank_breakdown(&merged.traces);
        assert_eq!(b[0].wall, Duration::from_micros(90));
        assert_eq!(b[0].compute, Duration::from_micros(40));
        assert_eq!(b[0].wait, Duration::from_micros(50));
        assert!(b[0].coverage() > 0.99, "{}", b[0].coverage());
        assert_eq!(b[1].wall, Duration::from_micros(100));
        assert!((b[1].coverage() - 1.0).abs() < 1e-9);
        let rendered = render_rank_breakdown(&b);
        assert!(rendered.contains("covered"), "{rendered}");
        assert!(rendered.contains("100.0%"), "{rendered}");
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let p = percentiles(&mut samples);
        assert_eq!(p.p50, Duration::from_micros(50));
        assert_eq!(p.p95, Duration::from_micros(95));
        assert_eq!(p.max, Duration::from_micros(100));
        assert_eq!(percentiles(&mut Vec::new()), Percentiles::default());
    }
}
