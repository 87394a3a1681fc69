//! Per-rank execution traces and text renderers.
//!
//! The paper reasons about *where time goes* in the generated programs —
//! pipeline stalls from mirror-image decomposition, communication versus
//! computation, barrier waits. The communicator records every
//! communication event with wall-clock timestamps, wire footprint, and
//! the program phase it ran in; [`render_timeline`] turns the per-rank
//! traces into a text Gantt chart, and [`render_wire_table`] prints the
//! wire traffic of the folded table ([`crate::export::fold`]) per rank
//! per phase — identically for the in-process and TCP transports, since
//! both feed the same trace.

use crate::export::PhaseTable;
use std::time::{Duration, Instant};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A buffered send (instantaneous).
    Send,
    /// A receive: `start..end` spans the blocked wait.
    Recv,
    /// A barrier wait.
    Barrier,
    /// An allreduce (includes its internal waits).
    Reduce,
    /// Local computation: `start..end` spans time spent *outside* the
    /// communicator (loop-nest execution, halo pack/unpack).
    Compute,
    /// Interior computation overlapped with in-flight halo exchange:
    /// like [`EventKind::Compute`], but the span runs between posting
    /// nonblocking ghost sends/receives and waiting on them, so its
    /// duration is communication latency *hidden* behind useful work.
    Overlap,
}

impl EventKind {
    /// Stable lowercase name, used by the journal and exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::Barrier => "barrier",
            EventKind::Reduce => "reduce",
            EventKind::Compute => "compute",
            EventKind::Overlap => "overlap",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn from_name(s: &str) -> Option<EventKind> {
        Some(match s {
            "send" => EventKind::Send,
            "recv" => EventKind::Recv,
            "barrier" => EventKind::Barrier,
            "reduce" => EventKind::Reduce,
            "compute" => EventKind::Compute,
            "overlap" => EventKind::Overlap,
            _ => return None,
        })
    }
}

/// One traced event on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Offset from the communicator epoch at event start.
    pub start: Duration,
    /// Offset at event end (== `start` for sends).
    pub end: Duration,
    /// Peer rank: `Some(receiver)` for sends, `Some(source)` for
    /// receives, `None` for collectives and compute spans.
    pub peer: Option<usize>,
    /// Payload f64 elements (0 for barrier and compute).
    pub elems: usize,
    /// Wire bytes moved by this event (framed size on networked
    /// transports; payload size in-process; 0 for barrier and compute).
    pub bytes: usize,
    /// Index into the rank's phase-name list (see
    /// [`crate::Comm::phase_names`]) identifying the program phase this
    /// event ran in.
    pub phase: u32,
    /// Cross-rank causality stamp. For sends: this message's
    /// per-endpoint sequence number. For receives: the *sender's*
    /// sequence number, so `(peer, seq)` pairs the receive with exactly
    /// one send event on the peer's trace. `None` for collectives,
    /// compute spans, and events recorded before stamping existed.
    pub seq: Option<u64>,
}

impl TraceEvent {
    /// Span duration, regardless of kind.
    pub fn span(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The name of phase `index` in a rank's phase list (`phase_<index>`
/// when the list is too short to say).
pub(crate) fn phase_label(phase_names: &[String], index: u32) -> String {
    phase_names
        .get(index as usize)
        .cloned()
        .unwrap_or_else(|| format!("phase_{index}"))
}

/// A sink for timed execution spans. The interpreter records compute
/// spans against whatever recorder its hooks expose; [`crate::Comm`]
/// implements this by appending to its own trace under the current
/// phase, so compute and communication share one timeline.
pub trait Recorder {
    /// Record a span of kind `kind` running from `start` to `end`
    /// (wall-clock instants; the recorder translates to its epoch).
    fn record_span(&self, kind: EventKind, start: Instant, end: Instant);
}

/// Render the table's wire traffic as text: one row per phase that
/// communicated (in table order), one `msgs/bytes` cell per rank, and a
/// final column and row totalling per phase and per rank.
pub fn render_wire_table(table: &PhaseTable) -> String {
    let n = table.ranks();
    let rows: Vec<_> = table.rows.iter().filter(|r| r.total().is_comm()).collect();
    let cell = |msgs: u64, bytes: u64| {
        if msgs == 0 && bytes == 0 {
            "-".to_string()
        } else {
            format!("{msgs} msg/{bytes} B")
        }
    };
    let name_w = rows
        .iter()
        .map(|r| r.phase.len())
        .chain(["phase".len(), "total".len()])
        .max()
        .unwrap_or(5);
    let mut out = String::new();
    out.push_str(&format!("{:name_w$}", "phase"));
    for r in 0..n {
        out.push_str(&format!("  {:>16}", format!("rank {r}")));
    }
    out.push_str(&format!("  {:>16}\n", "total"));
    let mut rank_totals = vec![(0u64, 0u64); n];
    for row in &rows {
        out.push_str(&format!("{:name_w$}", row.phase));
        for (c, total) in row.cells.iter().zip(&mut rank_totals) {
            total.0 += c.msgs;
            total.1 += c.bytes;
            out.push_str(&format!("  {:>16}", cell(c.msgs, c.bytes)));
        }
        let t = row.total();
        out.push_str(&format!("  {:>16}\n", cell(t.msgs, t.bytes)));
    }
    out.push_str(&format!("{:name_w$}", "total"));
    for &(m, b) in &rank_totals {
        out.push_str(&format!("  {:>16}", cell(m, b)));
    }
    let (tm, tb) = rank_totals
        .iter()
        .fold((0, 0), |(m, b), t| (m + t.0, b + t.1));
    out.push_str(&format!("  {:>16}\n", cell(tm, tb)));
    out
}

/// Render per-rank traces as a fixed-width text timeline.
///
/// Each row is one rank; each column a time bucket. The glyph is the
/// dominant activity in the bucket: `R` receive-wait, `B` barrier,
/// `A` allreduce, `s` send, `C` compute span, `O` overlapped compute,
/// `·` idle (no traced event). Waits dominate sends dominate compute
/// dominates idle.
pub fn render_timeline(traces: &[Vec<TraceEvent>], width: usize) -> String {
    let width = width.max(10);
    let horizon = traces
        .iter()
        .flat_map(|t| t.iter().map(|e| e.end))
        .max()
        .unwrap_or_default();
    if horizon.is_zero() {
        return traces
            .iter()
            .enumerate()
            .map(|(r, _)| format!("rank {r} |{}|\n", "·".repeat(width)))
            .collect();
    }
    // precedence of a glyph when buckets contend
    fn strength(g: char) -> u8 {
        match g {
            'R' | 'B' | 'A' => 3,
            's' => 2,
            'C' | 'O' => 1,
            _ => 0,
        }
    }
    let bucket = horizon.as_secs_f64() / width as f64;
    let mut out = String::new();
    for (r, trace) in traces.iter().enumerate() {
        let mut row = vec!['·'; width];
        for e in trace {
            let b0 = ((e.start.as_secs_f64() / bucket) as usize).min(width - 1);
            let b1 = ((e.end.as_secs_f64() / bucket) as usize).min(width - 1);
            let glyph = match e.kind {
                EventKind::Send => 's',
                EventKind::Recv => 'R',
                EventKind::Barrier => 'B',
                EventKind::Reduce => 'A',
                EventKind::Compute => 'C',
                EventKind::Overlap => 'O',
            };
            for cell in row.iter_mut().take(b1 + 1).skip(b0) {
                if strength(glyph) >= strength(*cell) {
                    *cell = glyph;
                }
            }
        }
        out.push_str(&format!("rank {r} |{}|\n", row.iter().collect::<String>()));
    }
    out.push_str(&format!(
        "        0{}{:?}\n        (R recv-wait, B barrier, A allreduce, s send, C compute, O overlap, · idle)\n",
        " ".repeat(width.saturating_sub(1)),
        horizon
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::fold_traces;

    /// The communicating rows of one rank's folded trace, as
    /// `(phase, msgs, bytes)`.
    fn wire_rows(trace: &[TraceEvent], names: &[String]) -> Vec<(String, u64, u64)> {
        fold_traces(&[trace.to_vec()], &[names.to_vec()])
            .rows
            .iter()
            .map(|r| (r.phase.clone(), r.total()))
            .filter(|(_, t)| t.is_comm())
            .map(|(phase, t)| (phase, t.msgs, t.bytes))
            .collect()
    }

    fn ev(kind: EventKind, start_ms: u64, end_ms: u64, elems: usize) -> TraceEvent {
        ev_in(kind, start_ms, end_ms, elems, 0)
    }

    fn ev_in(kind: EventKind, start_ms: u64, end_ms: u64, elems: usize, phase: u32) -> TraceEvent {
        TraceEvent {
            kind,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            peer: None,
            elems,
            bytes: elems * 8,
            phase,
            seq: None,
        }
    }

    #[test]
    fn summarize_totals() {
        let t = vec![
            ev(EventKind::Send, 1, 1, 10),
            ev(EventKind::Recv, 2, 7, 10),
            ev(EventKind::Barrier, 9, 10, 0),
        ];
        let total = fold_traces(&[t], &[]).rank_total(0);
        assert_eq!(total.events, 3);
        assert_eq!(total.wait, Duration::from_millis(6));
        assert_eq!(total.comm, Duration::ZERO, "sends are instantaneous");
        assert_eq!(total.msgs, 2, "a barrier is not a message");
        assert_eq!(total.bytes, 160);
    }

    #[test]
    fn render_rows_per_rank() {
        let traces = vec![
            vec![ev(EventKind::Recv, 0, 50, 5)],
            vec![
                ev(EventKind::Send, 10, 10, 5),
                ev(EventKind::Reduce, 80, 100, 1),
            ],
        ];
        let s = render_timeline(&traces, 20);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("rank 0 |"));
        assert!(lines[1].starts_with("rank 1 |"));
        assert!(lines[0].contains('R'));
        assert!(lines[1].contains('s'));
        assert!(lines[1].contains('A'));
    }

    #[test]
    fn empty_traces_render() {
        let s = render_timeline(&[vec![], vec![]], 12);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("·"));
    }

    #[test]
    fn waits_dominate_sends_in_a_bucket() {
        let traces = vec![vec![
            ev(EventKind::Recv, 0, 100, 1),
            ev(EventKind::Send, 50, 50, 1),
        ]];
        let s = render_timeline(&traces, 10);
        let row = s.lines().next().unwrap();
        assert!(
            !row.contains('s'),
            "send must not overwrite the wait: {row}"
        );
    }

    #[test]
    fn wire_by_phase_groups_and_skips_silent_phases() {
        let names: Vec<String> = ["main", "sync_0", "quiet", "reduce_err"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let trace = vec![
            ev_in(EventKind::Send, 0, 0, 4, 1),
            ev_in(EventKind::Recv, 1, 2, 4, 1),
            ev_in(EventKind::Reduce, 3, 4, 1, 3),
            ev_in(EventKind::Barrier, 5, 6, 0, 3),
        ];
        let rows = wire_rows(&trace, &names);
        assert_eq!(
            rows,
            vec![
                ("sync_0".to_string(), 2, 64),
                ("reduce_err".to_string(), 1, 8),
            ]
        );
    }

    #[test]
    fn wire_table_totals_add_up() {
        let names = vec![
            vec!["main".to_string(), "sync_0".to_string()],
            vec!["main".to_string(), "sync_0".to_string()],
        ];
        let traces = vec![
            vec![ev_in(EventKind::Send, 0, 0, 8, 1)],
            vec![ev_in(EventKind::Recv, 0, 1, 8, 1)],
        ];
        let s = render_wire_table(&fold_traces(&traces, &names));
        assert!(s.contains("sync_0"), "{s}");
        assert!(s.contains("1 msg/64 B"), "{s}");
        // grand total: 2 messages, 128 bytes
        assert!(s.contains("2 msg/128 B"), "{s}");
        assert!(s.lines().next().unwrap().contains("rank 0"));
    }

    #[test]
    fn compute_spans_have_no_wait_and_no_wire_footprint() {
        let t = vec![
            ev(EventKind::Compute, 0, 40, 0),
            ev(EventKind::Recv, 40, 50, 4),
        ];
        let total = fold_traces(std::slice::from_ref(&t), &[]).rank_total(0);
        assert_eq!(total.events, 2);
        assert_eq!(total.wait, Duration::from_millis(10), "compute is not wait");
        assert_eq!(total.compute, Duration::from_millis(40));
        // compute never shows up in the wire table
        let names = vec!["main".to_string()];
        let rows = wire_rows(&t, &names);
        assert_eq!(rows, vec![("main".to_string(), 1, 32)]);
        let quiet = vec![ev(EventKind::Compute, 0, 40, 0)];
        assert!(wire_rows(&quiet, &names).is_empty());
    }

    #[test]
    fn overlap_spans_hide_wait_and_stay_off_the_wire_table() {
        let t = vec![
            ev(EventKind::Overlap, 0, 30, 0),
            ev(EventKind::Recv, 30, 35, 4),
        ];
        let total = fold_traces(std::slice::from_ref(&t), &[]).rank_total(0);
        assert_eq!(total.events, 2);
        assert_eq!(total.wait, Duration::from_millis(5), "overlap is not wait");
        assert_eq!(total.overlap, Duration::from_millis(30));
        let names = vec!["main".to_string()];
        assert_eq!(wire_rows(&t, &names), vec![("main".to_string(), 1, 32)]);
        let s = render_timeline(&[t], 10);
        assert!(s.lines().next().unwrap().contains('O'), "{s}");
    }

    #[test]
    fn event_kind_names_round_trip() {
        for k in [
            EventKind::Send,
            EventKind::Recv,
            EventKind::Barrier,
            EventKind::Reduce,
            EventKind::Compute,
            EventKind::Overlap,
        ] {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_name("mystery"), None);
    }

    #[test]
    fn timeline_golden_output() {
        // rank 0: compute 0-40 ms, recv 40-80 ms, barrier 80-100 ms
        // rank 1: compute 0-70 ms, send at 70 ms, barrier 80-100 ms
        let traces = vec![
            vec![
                ev(EventKind::Compute, 0, 40, 0),
                ev(EventKind::Recv, 40, 80, 8),
                ev(EventKind::Barrier, 80, 100, 0),
            ],
            vec![
                ev(EventKind::Compute, 0, 70, 0),
                ev(EventKind::Send, 70, 70, 8),
                ev(EventKind::Barrier, 80, 100, 0),
            ],
        ];
        let s = render_timeline(&traces, 10);
        let expect = "\
rank 0 |CCCCRRRRBB|
rank 1 |CCCCCCCsBB|
        0         100ms
        (R recv-wait, B barrier, A allreduce, s send, C compute, O overlap, · idle)\n";
        assert_eq!(s, expect);
    }

    #[test]
    fn wire_table_golden_output() {
        let names = vec![
            vec!["main".to_string(), "sync_0".to_string()],
            vec!["main".to_string(), "sync_0".to_string()],
        ];
        let traces = vec![
            vec![
                ev_in(EventKind::Compute, 0, 5, 0, 0),
                ev_in(EventKind::Send, 5, 5, 8, 1),
            ],
            vec![ev_in(EventKind::Recv, 5, 6, 8, 1)],
        ];
        let s = render_wire_table(&fold_traces(&traces, &names));
        let expect = "\
phase             rank 0            rank 1             total
sync_0        1 msg/64 B        1 msg/64 B       2 msg/128 B
total         1 msg/64 B        1 msg/64 B       2 msg/128 B\n";
        assert_eq!(s, expect);
    }
}
