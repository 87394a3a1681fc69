//! Structured per-rank execution journal (JSONL).
//!
//! After a traced run, every rank's in-memory trace is dumped to
//! `rank-<r>.jsonl` inside a per-run trace directory. Each line is one
//! self-contained JSON record:
//!
//! * a `header` line first — schema version, rank, rank count,
//!   transport, and the rank's trace epoch as Unix nanoseconds
//!   ([`epoch_unix_ns`]);
//! * one `event` line per [`TraceEvent`], with times as nanosecond
//!   offsets from the rank's epoch and the phase carried *by name* (so a
//!   truncated journal is still interpretable without the phase table);
//! * a `footer` line with the event count — its absence marks a journal
//!   cut short by a crash, which the parser tolerates and reports via
//!   [`RankJournal::complete`].
//!
//! Ranks timestamp against private epochs (separate processes on the TCP
//! transport); the [`merge`] step pins every rank's first shared
//! synchronization to one instant so one cross-rank timeline comes out,
//! ready for the renderers in [`crate::trace`] and the exporters in
//! [`crate::export`].

use crate::trace::{phase_label, EventKind, TraceEvent};
use serde::json::{self, Fields, Value};
use std::fmt;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

/// Version stamped into every journal header; bump on any change to the
/// record shapes below. A journal older than this is refused with a
/// [`JournalError`] naming both versions. A *newer* one reads
/// forward-compatibly: unknown record types, unknown event kinds, and
/// extra fields are *skipped and counted* (see [`RankJournal::skipped`])
/// instead of erroring, so a journal written by a newer build still
/// merges on an older one. v4 dropped the per-event `engine` tag.
pub const SCHEMA_VERSION: i64 = 4;

/// Run-level metadata opening each rank's journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub version: i64,
    /// The rank this journal belongs to.
    pub rank: usize,
    /// Total ranks in the run.
    pub ranks: usize,
    /// Transport label (`"inproc"` or `"tcp"`).
    pub transport: String,
    /// The rank's trace epoch as nanoseconds since the Unix epoch; the
    /// merger aligns ranks by these.
    pub epoch_unix_ns: i128,
}

/// One journaled event: a [`TraceEvent`] with its phase resolved to a
/// name (journal lines are self-contained).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Start offset from the rank's epoch.
    pub start: Duration,
    /// End offset from the rank's epoch.
    pub end: Duration,
    /// Peer rank for point-to-point events.
    pub peer: Option<usize>,
    /// Payload f64 elements.
    pub elems: usize,
    /// Wire bytes moved.
    pub bytes: usize,
    /// Program phase name.
    pub phase: String,
    /// Per-endpoint message sequence number — the causality stamp that
    /// pairs a recv with the exact send that produced it (`(peer, seq)`
    /// is unique per sender). `None` for collectives and compute spans.
    pub seq: Option<u64>,
}

/// One rank's parsed journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RankJournal {
    /// The header line.
    pub header: JournalHeader,
    /// Events in recorded order.
    pub events: Vec<JournalEvent>,
    /// Whether the footer was present and its count matched — `false`
    /// means the journal was truncated (the rank died mid-run).
    pub complete: bool,
    /// Lines skipped by the forward-compat parser: unknown record types
    /// or event kinds a newer schema introduced. Non-zero means the
    /// timeline is readable but not exhaustive — surface it as a
    /// warning, not an error.
    pub skipped: usize,
}

/// A journal read or parse failure.
#[derive(Debug)]
pub struct JournalError {
    /// What went wrong, with file/line context where known.
    pub message: String,
}

impl JournalError {
    fn new(message: impl Into<String>) -> JournalError {
        JournalError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal error: {}", self.message)
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::new(e.to_string())
    }
}

/// A rank's trace epoch as Unix nanoseconds: the wall-clock time that
/// `epoch` refers to, computed from the current instant. Call while the
/// `Instant` is recent (at run end) — drift is the error of one
/// `SystemTime::now()` read.
pub fn epoch_unix_ns(epoch: Instant) -> i128 {
    let now_unix = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as i128;
    now_unix - epoch.elapsed().as_nanos() as i128
}

/// The journal file path for `rank` under `dir`.
pub fn rank_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank-{rank}.jsonl"))
}

/// One rank's journal, written as a post-run dump: the header on
/// creation, events as they are appended, and the footer by
/// [`JournalWriter::finish`]. Lines are buffered and reach the file when
/// `finish` flushes them.
pub struct JournalWriter {
    file: BufWriter<std::fs::File>,
    events: usize,
}

impl JournalWriter {
    /// Create `rank-<r>.jsonl` under `dir` (creating `dir` if needed)
    /// and write the header line.
    pub fn create(dir: &Path, header: &JournalHeader) -> Result<JournalWriter, JournalError> {
        std::fs::create_dir_all(dir)?;
        let mut file = BufWriter::new(std::fs::File::create(rank_path(dir, header.rank))?);
        let line = Value::obj(vec![
            ("type", Value::Str("header".into())),
            ("version", Value::Int(header.version as i128)),
            ("rank", Value::Int(header.rank as i128)),
            ("ranks", Value::Int(header.ranks as i128)),
            ("transport", Value::Str(header.transport.clone())),
            ("epoch_unix_ns", Value::Int(header.epoch_unix_ns)),
        ]);
        writeln!(file, "{line}")?;
        Ok(JournalWriter { file, events: 0 })
    }

    /// Append one event line.
    pub fn append(&mut self, ev: &JournalEvent) -> Result<(), JournalError> {
        let peer = match ev.peer {
            Some(p) => Value::Int(p as i128),
            None => Value::Null,
        };
        let mut fields = vec![
            ("type", Value::Str("event".into())),
            ("kind", Value::Str(ev.kind.name().into())),
            ("start_ns", Value::Int(ev.start.as_nanos() as i128)),
            ("end_ns", Value::Int(ev.end.as_nanos() as i128)),
            ("peer", peer),
            ("elems", Value::Int(ev.elems as i128)),
            ("bytes", Value::Int(ev.bytes as i128)),
            ("phase", Value::Str(ev.phase.clone())),
        ];
        if let Some(seq) = ev.seq {
            fields.push(("seq", Value::Int(seq as i128)));
        }
        let line = Value::obj(fields);
        writeln!(self.file, "{line}")?;
        self.events += 1;
        Ok(())
    }

    /// Write the footer line, flush every buffered line to the file and
    /// close the journal.
    pub fn finish(mut self) -> Result<(), JournalError> {
        let line = Value::obj(vec![
            ("type", Value::Str("footer".into())),
            ("events", Value::Int(self.events as i128)),
        ]);
        writeln!(self.file, "{line}")?;
        self.file.flush()?;
        Ok(())
    }
}

/// Resolve a rank's raw trace to journal events (phase indices become
/// names; unknown indices render as `phase_<i>`).
fn resolve_events(trace: &[TraceEvent], phase_names: &[String]) -> Vec<JournalEvent> {
    trace
        .iter()
        .map(|e| JournalEvent {
            kind: e.kind,
            start: e.start,
            end: e.end,
            peer: e.peer,
            elems: e.elems,
            bytes: e.bytes,
            phase: phase_label(phase_names, e.phase),
            seq: e.seq,
        })
        .collect()
}

/// Write one rank's complete journal (header, every event, footer) to
/// `dir/rank-<r>.jsonl`, returning the path.
pub fn write_rank_journal(
    dir: &Path,
    header: &JournalHeader,
    trace: &[TraceEvent],
    phase_names: &[String],
) -> Result<PathBuf, JournalError> {
    let mut w = JournalWriter::create(dir, header)?;
    for ev in resolve_events(trace, phase_names) {
        w.append(&ev)?;
    }
    w.finish()?;
    Ok(rank_path(dir, header.rank))
}

/// One parsed journal line.
///
/// Non-exhaustive: future schema versions may add record types (a
/// checkpoint marker, say) without that being a breaking change, so
/// downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JournalRecord {
    /// The opening `header` line.
    Header(JournalHeader),
    /// One `event` line.
    Event(JournalEvent),
    /// The closing `footer` line.
    Footer {
        /// The event count the writer claims to have appended; a
        /// mismatch with the lines actually present marks truncation.
        events: usize,
    },
    /// A syntactically valid line this build does not understand — an
    /// unknown record type or event kind from a newer schema. Counted
    /// by [`parse_rank_journal`] so readers can warn instead of dying.
    Skipped {
        /// What was unrecognized (for the warning message).
        reason: String,
    },
}

/// Parse one journal line (`ln` is its 1-based line number, used in
/// error messages).
pub fn parse_line(raw: &str, ln: usize) -> Result<JournalRecord, JournalError> {
    let ctx = format!("line {ln}");
    let doc = json::parse(raw).map_err(|e| JournalError::new(format!("{ctx}: {e}")))?;
    parse_record(Fields::new(&doc, &ctx), &ctx).map_err(JournalError::new)
}

fn parse_record(line: Fields<'_>, ctx: &str) -> Result<JournalRecord, String> {
    let nanos = |key| line.int(key).map(Duration::from_nanos);
    match line.str("type")?.as_str() {
        "header" => {
            let version: i64 = line.int("version")?;
            if version < SCHEMA_VERSION {
                return Err(format!(
                    "{ctx}: journal schema version {version} is older than this \
                     build's {SCHEMA_VERSION}; re-run the trace with this build"
                ));
            }
            // versions above SCHEMA_VERSION read best-effort: known
            // fields parse, unknown records/kinds become Skipped lines
            Ok(JournalRecord::Header(JournalHeader {
                version,
                rank: line.int("rank")?,
                ranks: line.int("ranks")?,
                transport: line.str("transport")?,
                epoch_unix_ns: line.int("epoch_unix_ns")?,
            }))
        }
        "event" => {
            let kind_name = line.str("kind")?;
            let Some(kind) = EventKind::from_name(&kind_name) else {
                // an event kind from a newer schema: skip, don't die
                return Ok(JournalRecord::Skipped {
                    reason: format!("{ctx}: unknown event kind `{kind_name}`"),
                });
            };
            Ok(JournalRecord::Event(JournalEvent {
                kind,
                start: nanos("start_ns")?,
                end: nanos("end_ns")?,
                peer: match line.get("peer")? {
                    Value::Null => None,
                    _ => Some(line.int("peer")?),
                },
                elems: line.int("elems")?,
                bytes: line.int("bytes")?,
                phase: line.str("phase")?,
                // absent on collectives and compute spans
                seq: match line.get("seq") {
                    Err(_) => None,
                    Ok(_) => Some(line.int("seq")?),
                },
            }))
        }
        "footer" => Ok(JournalRecord::Footer {
            events: line.int("events")?,
        }),
        other => Ok(JournalRecord::Skipped {
            reason: format!("{ctx}: unknown record type `{other}`"),
        }),
    }
}

/// Parse one rank's journal text. A missing or short footer is not an
/// error — the journal is returned with [`RankJournal::complete`] set to
/// `false` (that is exactly the crashed-rank case the journal exists
/// for). A missing header, or garbage on any present line, is an error.
pub fn parse_rank_journal(text: &str) -> Result<RankJournal, JournalError> {
    let mut header: Option<JournalHeader> = None;
    let mut events = Vec::new();
    let mut complete = false;
    let mut skipped = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let ln = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        match parse_line(raw, ln)? {
            JournalRecord::Header(h) => header = Some(h),
            JournalRecord::Event(e) => events.push(e),
            // the footer counts *writer-side* events: lines this build
            // skipped still count toward a matching footer
            JournalRecord::Footer { events: n } => complete = n == events.len() + skipped,
            JournalRecord::Skipped { .. } => skipped += 1,
            // `JournalRecord` is non-exhaustive for downstream crates;
            // record types this build doesn't know cannot parse above.
            #[allow(unreachable_patterns)]
            _ => {}
        }
    }
    let header = header.ok_or_else(|| JournalError::new("no header line"))?;
    Ok(RankJournal {
        header,
        events,
        complete,
        skipped,
    })
}

/// Load every `rank-*.jsonl` under `dir`, in rank order. Requires at
/// least one journal and rejects duplicate ranks.
pub fn load_trace_dir(dir: &Path) -> Result<Vec<RankJournal>, JournalError> {
    let mut journals = Vec::new();
    for entry in
        std::fs::read_dir(dir).map_err(|e| JournalError::new(format!("{}: {e}", dir.display())))?
    {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("rank-") && name.ends_with(".jsonl")) {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| JournalError::new(format!("{}: {e}", path.display())))?;
        let j = parse_rank_journal(&text)
            .map_err(|e| JournalError::new(format!("{}: {}", path.display(), e.message)))?;
        journals.push(j);
    }
    if journals.is_empty() {
        return Err(JournalError::new(format!(
            "no rank-*.jsonl journals in {}",
            dir.display()
        )));
    }
    journals.sort_by_key(|j| j.header.rank);
    for w in journals.windows(2) {
        if w[0].header.rank == w[1].header.rank {
            return Err(JournalError::new(format!(
                "duplicate journal for rank {}",
                w[0].header.rank
            )));
        }
    }
    Ok(journals)
}

/// A run's journals merged onto one timeline, shaped for the text
/// renderers in [`crate::trace`] and the exporters in [`crate::export`].
#[derive(Debug, Clone, PartialEq)]
pub struct MergedTrace {
    /// Per-rank events, times re-anchored onto the shared timeline and
    /// sorted by start within each rank. `traces[r]` belongs to the
    /// rank of `journals[r]`.
    pub traces: Vec<Vec<TraceEvent>>,
    /// Per-rank phase names in first-appearance order; `TraceEvent::phase`
    /// indexes into the owning rank's list.
    pub phase_names: Vec<Vec<String>>,
    /// Transport label from the headers.
    pub transport: String,
    /// Whether every rank's journal was complete (footer matched).
    pub complete: bool,
    /// Total lines skipped by the forward-compat parser across all
    /// ranks ([`RankJournal::skipped`] summed).
    pub skipped: usize,
}

/// Merge per-rank journals into one timeline, aligning ranks at a
/// shared synchronization marker instead of trusting the wall-clock
/// epochs in the headers. Ranks on different hosts (or launched
/// seconds apart) journal against origins whose wall-clock gap says
/// nothing about where the ranks stood *relative to each other*. The
/// first communication event every rank shares is a true rendezvous:
/// no rank can complete it before the others arrive, so pinning its
/// completion to one instant across ranks bounds the alignment error
/// by that sync's duration instead of the clock skew. Span sums are
/// offset-invariant; only cross-rank timestamps depend on this.
///
/// The marker is the first phase, in rank-0 event order, in which
/// every rank recorded a non-compute event; each rank aligns at its
/// first such event's end. With no shared marker phase (a single rank,
/// or disjoint journals) ranks align by the header epochs instead.
/// Events are (re)sorted by start time within each rank, making the
/// merge robust to out-of-order lines.
pub fn merge(journals: &[RankJournal]) -> MergedTrace {
    let is_marker = |e: &JournalEvent| !matches!(e.kind, EventKind::Compute | EventKind::Overlap);
    let marker_ends = journals.first().and_then(|j0| {
        let mut seen: Vec<&str> = Vec::new();
        for e in j0.events.iter().filter(|e| is_marker(e)) {
            let phase = e.phase.as_str();
            if seen.contains(&phase) {
                continue;
            }
            seen.push(phase);
            let ends: Vec<Duration> = journals
                .iter()
                .filter_map(|j| {
                    j.events
                        .iter()
                        .find(|ev| ev.phase == phase && is_marker(ev))
                        .map(|ev| ev.end)
                })
                .collect();
            if ends.len() == journals.len() {
                return Some(ends);
            }
        }
        None
    });
    let offsets = match marker_ends {
        Some(ends) => {
            let rendezvous = ends.iter().copied().max().unwrap_or_default();
            ends.iter().map(|&e| rendezvous - e).collect()
        }
        None => epoch_offsets(journals),
    };
    merge_with_offsets(journals, &offsets)
}

/// The no-shared-sync fallback of [`merge`]: each rank shifts forward
/// by the gap between its header epoch and the earliest in the run.
fn epoch_offsets(journals: &[RankJournal]) -> Vec<Duration> {
    let base = journals
        .iter()
        .map(|j| j.header.epoch_unix_ns)
        .min()
        .unwrap_or(0);
    journals
        .iter()
        .map(|j| Duration::from_nanos((j.header.epoch_unix_ns - base).max(0) as u64))
        .collect()
}

#[cfg(test)]
fn merge_by_epoch(journals: &[RankJournal]) -> MergedTrace {
    merge_with_offsets(journals, &epoch_offsets(journals))
}

/// Shared merge body: shift rank `r`'s events forward by `offsets[r]`,
/// intern phase names per rank, and re-sort within each rank.
fn merge_with_offsets(journals: &[RankJournal], offsets: &[Duration]) -> MergedTrace {
    let mut traces = Vec::with_capacity(journals.len());
    let mut phase_names = Vec::with_capacity(journals.len());
    for (j, &offset) in journals.iter().zip(offsets) {
        let mut names: Vec<String> = Vec::new();
        let mut trace: Vec<TraceEvent> = j
            .events
            .iter()
            .map(|e| {
                let phase = match names.iter().position(|n| n == &e.phase) {
                    Some(i) => i,
                    None => {
                        names.push(e.phase.clone());
                        names.len() - 1
                    }
                } as u32;
                TraceEvent {
                    kind: e.kind,
                    start: e.start + offset,
                    end: e.end + offset,
                    peer: e.peer,
                    elems: e.elems,
                    bytes: e.bytes,
                    phase,
                    seq: e.seq,
                }
            })
            .collect();
        trace.sort_by_key(|e| (e.start, e.end));
        traces.push(trace);
        phase_names.push(names);
    }
    MergedTrace {
        traces,
        phase_names,
        transport: journals
            .first()
            .map(|j| j.header.transport.clone())
            .unwrap_or_default(),
        complete: journals.iter().all(|j| j.complete),
        skipped: journals.iter().map(|j| j.skipped).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(rank: usize, epoch_unix_ns: i128) -> JournalHeader {
        JournalHeader {
            version: SCHEMA_VERSION,
            rank,
            ranks: 2,
            transport: "inproc".into(),
            epoch_unix_ns,
        }
    }

    fn event(kind: EventKind, start_us: u64, end_us: u64, phase: &str) -> JournalEvent {
        JournalEvent {
            kind,
            start: Duration::from_micros(start_us),
            end: Duration::from_micros(end_us),
            peer: match kind {
                EventKind::Send => Some(1),
                EventKind::Recv => Some(0),
                _ => None,
            },
            elems: 4,
            bytes: 32,
            phase: phase.into(),
            seq: match kind {
                EventKind::Send | EventKind::Recv => Some(1),
                _ => None,
            },
        }
    }

    #[test]
    fn journal_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("acf-journal-{}", std::process::id()));
        let trace = vec![
            TraceEvent {
                kind: EventKind::Compute,
                start: Duration::from_micros(0),
                end: Duration::from_micros(50),
                peer: None,
                elems: 0,
                bytes: 0,
                phase: 0,
                seq: None,
            },
            TraceEvent {
                kind: EventKind::Send,
                start: Duration::from_micros(50),
                end: Duration::from_micros(50),
                peer: Some(1),
                elems: 10,
                bytes: 80,
                phase: 1,
                seq: Some(7),
            },
        ];
        let names = vec!["main".to_string(), "sync_0".to_string()];
        let h = header(0, 1_722_000_000_123_456_789);
        let path = write_rank_journal(&dir, &h, &trace, &names).unwrap();
        let parsed = parse_rank_journal(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(parsed.complete);
        assert_eq!(parsed.skipped, 0);
        assert_eq!(parsed.header, h);
        assert_eq!(parsed.events, resolve_events(&trace, &names));
        assert_eq!(parsed.events[1].seq, Some(7), "causality stamp survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_journal_parses_as_incomplete() {
        let dir = std::env::temp_dir().join(format!("acf-trunc-{}", std::process::id()));
        let trace = vec![TraceEvent {
            kind: EventKind::Recv,
            start: Duration::from_micros(1),
            end: Duration::from_micros(9),
            peer: Some(1),
            elems: 2,
            bytes: 16,
            phase: 0,
            seq: Some(1),
        }];
        let path = write_rank_journal(&dir, &header(0, 1), &trace, &["main".to_string()]).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        // drop the footer, as a crash mid-run would
        let cut: String = full.lines().take(2).map(|l| format!("{l}\n")).collect();
        let parsed = parse_rank_journal(&cut).unwrap();
        assert!(!parsed.complete);
        assert_eq!(parsed.events.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_header_and_garbage_are_errors() {
        assert!(parse_rank_journal("").is_err());
        assert!(parse_rank_journal("not json at all").is_err());
        let negative_version = r#"{"type":"header","version":-1,"rank":0,"ranks":1,"transport":"inproc","epoch_unix_ns":0}"#;
        let e = parse_rank_journal(negative_version).unwrap_err();
        assert!(e.message.contains("version"), "{e}");
    }

    #[test]
    fn older_schema_is_refused_never_panics() {
        for old in 1..SCHEMA_VERSION {
            let text = format!(
                r#"{{"type":"header","version":{old},"rank":0,"ranks":1,"transport":"inproc","epoch_unix_ns":0}}
{{"type":"event","kind":"compute","start_ns":0,"end_ns":10,"peer":null,"elems":0,"bytes":0,"phase":"main"}}
{{"type":"footer","events":1}}"#
            );
            let e = parse_rank_journal(&text).unwrap_err();
            assert!(
                e.message.contains(&format!("version {old}"))
                    && e.message.contains(&SCHEMA_VERSION.to_string()),
                "{e}"
            );
        }
    }

    #[test]
    fn negative_numbers_are_typed_errors_not_wrapped_values() {
        let header = r#"{"type":"header","version":4,"rank":-1,"ranks":1,"transport":"inproc","epoch_unix_ns":0}"#;
        let e = parse_rank_journal(header).unwrap_err();
        assert!(e.message.contains("`rank` out of range"), "{e}");
        let event = r#"{"type":"event","kind":"recv","start_ns":-5,"end_ns":10,"peer":2,"elems":1,"bytes":8,"phase":"main","seq":1}"#;
        let e = parse_line(event, 2).unwrap_err();
        assert!(e.message.contains("line 2: `start_ns` out of range"), "{e}");
        for field in ["peer", "elems", "bytes", "seq"] {
            let bad = event
                .replace("\"start_ns\":-5", "\"start_ns\":5")
                .replace(&format!("\"{field}\":"), &format!("\"{field}\":-"));
            assert!(parse_line(&bad, 2).is_err(), "{field} must not wrap: {bad}");
        }
    }

    #[test]
    fn newer_schema_lines_are_skipped_and_counted() {
        // a version-99 journal with one known event, one unknown event
        // kind, and one unknown record type: the known event survives,
        // the other two are counted, and the footer (which counts all
        // three writer-side lines) still marks the journal complete
        let future = r#"{"type":"header","version":99,"rank":0,"ranks":1,"transport":"inproc","epoch_unix_ns":0}
{"type":"event","kind":"compute","start_ns":0,"end_ns":10,"peer":null,"elems":0,"bytes":0,"phase":"main","novel_field":42}
{"type":"event","kind":"teleport","start_ns":10,"end_ns":20,"peer":null,"elems":0,"bytes":0,"phase":"main"}
{"type":"gpu_counter","value":7}
{"type":"footer","events":3}"#;
        let parsed = parse_rank_journal(future).unwrap();
        assert_eq!(parsed.header.version, 99);
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.events[0].kind, EventKind::Compute);
        assert_eq!(parsed.skipped, 2);
        assert!(parsed.complete, "skipped lines count toward the footer");
        let merged = merge(&[parsed]);
        assert_eq!(merged.skipped, 2, "merge surfaces the skip count");
    }

    #[test]
    fn merge_aligns_rank_epochs() {
        // rank 1's clock started 100 µs after rank 0's: its events must
        // shift forward by the difference
        let j0 = RankJournal {
            header: header(0, 1_000_000_000),
            events: vec![event(EventKind::Send, 0, 0, "sync_0")],
            complete: true,
            skipped: 0,
        };
        let j1 = RankJournal {
            header: header(1, 1_000_100_000),
            events: vec![event(EventKind::Recv, 0, 30, "sync_0")],
            complete: true,
            skipped: 0,
        };
        let merged = merge_by_epoch(&[j0, j1]);
        assert_eq!(merged.traces[0][0].start, Duration::from_micros(0));
        assert_eq!(merged.traces[1][0].start, Duration::from_micros(100));
        assert_eq!(merged.traces[1][0].end, Duration::from_micros(130));
        assert_eq!(merged.phase_names[0], vec!["sync_0".to_string()]);
        assert!(merged.complete);
    }

    #[test]
    fn marker_alignment_cancels_offset_origins() {
        // Both ranks computed 100 µs then met at the sync_0 barrier —
        // but rank 1's wall clock (journal epoch) reads 5 s ahead.
        // Epoch alignment smears those 5 s into the timeline; marker
        // alignment pins both ranks' barrier completion to one instant
        // so skew math sees the true (identical) compute spans.
        let j0 = RankJournal {
            header: header(0, 1_000_000_000),
            events: vec![
                event(EventKind::Compute, 0, 100, "main"),
                event(EventKind::Barrier, 100, 130, "sync_0"),
            ],
            complete: true,
            skipped: 0,
        };
        let j1 = RankJournal {
            header: header(1, 5_001_000_000_000),
            events: vec![
                event(EventKind::Compute, 0, 100, "main"),
                event(EventKind::Barrier, 100, 130, "sync_0"),
            ],
            complete: true,
            skipped: 0,
        };
        let epoch = merge_by_epoch(&[j0.clone(), j1.clone()]);
        // wall-clock merge pushes rank 1 ~5 s into the future
        assert!(epoch.traces[1][0].start >= Duration::from_secs(5));
        let aligned = merge(&[j0, j1]);
        assert_eq!(aligned.traces[0], aligned.traces[1]);
        assert_eq!(aligned.traces[0][1].end, Duration::from_micros(130));
        assert!(aligned.complete);
    }

    #[test]
    fn marker_alignment_shifts_late_ranks_not_early_ones() {
        // Rank 1 reached the barrier 40 µs later (journal-local); the
        // rendezvous instant is the latest arrival, so rank 0 shifts
        // forward by 40 µs and rank 1 not at all.
        let j0 = RankJournal {
            header: header(0, 0),
            events: vec![event(EventKind::Barrier, 100, 130, "sync_0")],
            complete: true,
            skipped: 0,
        };
        let j1 = RankJournal {
            header: header(1, 0),
            events: vec![event(EventKind::Barrier, 140, 170, "sync_0")],
            complete: true,
            skipped: 0,
        };
        let aligned = merge(&[j0, j1]);
        assert_eq!(aligned.traces[0][0].end, Duration::from_micros(170));
        assert_eq!(aligned.traces[1][0].end, Duration::from_micros(170));
    }

    #[test]
    fn marker_alignment_falls_back_without_a_shared_sync() {
        // No phase has a non-compute event on every rank: behave like
        // the epoch merge.
        let j0 = RankJournal {
            header: header(0, 1_000),
            events: vec![event(EventKind::Compute, 0, 10, "main")],
            complete: true,
            skipped: 0,
        };
        let j1 = RankJournal {
            header: header(1, 2_000),
            events: vec![event(EventKind::Compute, 0, 10, "main")],
            complete: true,
            skipped: 0,
        };
        let aligned = merge(&[j0.clone(), j1.clone()]);
        assert_eq!(aligned, merge_by_epoch(&[j0, j1]));
        assert_eq!(aligned.traces[1][0].start, Duration::from_micros(1));
    }

    #[test]
    fn load_trace_dir_orders_and_validates() {
        let dir = std::env::temp_dir().join(format!("acf-dir-{}", std::process::id()));
        // write rank 1 before rank 0; loading must come back rank-ordered
        for rank in [1usize, 0] {
            write_rank_journal(&dir, &header(rank, rank as i128), &[], &[]).unwrap();
        }
        let js = load_trace_dir(&dir).unwrap();
        assert_eq!(js.len(), 2);
        assert_eq!(js[0].header.rank, 0);
        assert_eq!(js[1].header.rank, 1);
        std::fs::remove_dir_all(&dir).ok();
        assert!(load_trace_dir(Path::new("/nonexistent-acf")).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_kind() -> impl Strategy<Value = EventKind> {
        prop_oneof![
            Just(EventKind::Send),
            Just(EventKind::Recv),
            Just(EventKind::Barrier),
            Just(EventKind::Reduce),
            Just(EventKind::Compute),
            Just(EventKind::Overlap),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Epoch alignment is exact: for every event, merged start ==
        /// (rank epoch + journal start) − earliest epoch; per-rank order
        /// is by start time; phase indices resolve to the journal names.
        #[test]
        fn merge_preserves_absolute_times_and_order(
            epochs in proptest::collection::vec(0i64..1_000_000, 1..4),
            starts in proptest::collection::vec(0u32..1_000_000, 1..20),
            kinds in proptest::collection::vec(arb_kind(), 1..20),
            phases in proptest::collection::vec(0u8..3, 1..20),
        ) {
            let n = starts.len().min(kinds.len()).min(phases.len());
            let journals: Vec<RankJournal> = epochs
                .iter()
                .enumerate()
                .map(|(rank, &epoch)| RankJournal {
                    header: JournalHeader {
                        version: SCHEMA_VERSION,
                        rank,
                        ranks: epochs.len(),
                        transport: "inproc".into(),
                        epoch_unix_ns: epoch as i128,
                    },
                    events: (0..n)
                        .map(|i| JournalEvent {
                            kind: kinds[i],
                            start: Duration::from_nanos(starts[i] as u64),
                            end: Duration::from_nanos(starts[i] as u64 + 5),
                            peer: None,
                            elems: i,
                            bytes: i * 8,
                            phase: format!("phase_{}", phases[i]),
                            seq: None,
                        })
                        .collect(),
                    complete: true,
                    skipped: 0,
                })
                .collect();
            let base = *epochs.iter().min().unwrap() as i128;
            let merged = merge_by_epoch(&journals);
            for (j, trace) in journals.iter().zip(&merged.traces) {
                prop_assert_eq!(j.events.len(), trace.len());
                let offset = (j.header.epoch_unix_ns - base) as u64;
                // absolute times survive the re-anchoring
                let mut expected: Vec<u64> = j
                    .events
                    .iter()
                    .map(|e| e.start.as_nanos() as u64 + offset)
                    .collect();
                expected.sort_unstable();
                let got: Vec<u64> =
                    trace.iter().map(|e| e.start.as_nanos() as u64).collect();
                prop_assert_eq!(&expected, &got);
                // merged events are start-ordered within the rank
                prop_assert!(got.windows(2).all(|w| w[0] <= w[1]));
            }
            // every phase index resolves to the name the journal carried
            for (r, trace) in merged.traces.iter().enumerate() {
                for e in trace {
                    let name = &merged.phase_names[r][e.phase as usize];
                    prop_assert!(
                        journals[r].events.iter().any(|je| &je.phase == name)
                    );
                }
            }
        }
    }
}
