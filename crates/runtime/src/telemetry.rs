//! The live telemetry plane: periodic per-rank stat frames.
//!
//! Journals ([`crate::journal`]) are post-mortem — nothing is visible
//! until a rank flushes and the merger runs. This module adds the *live*
//! counterpart: each rank accumulates its trace events into the same
//! [`Cell`] the post-mortem fold fills, cuts it into a periodic,
//! schema-versioned [`StatFrame`] (current phase, compute/wait/overlap
//! micros, per-peer traffic, checkpoint epoch, engine) and appends it to
//! a per-rank spool file (`telemetry-rank-<r>.jsonl`) next to the
//! journals, flushed per frame so `acfc top DIR` can poll a *running*
//! job. The spool is the only channel; a spool I/O failure degrades the
//! telemetry, never the run.
//!
//! The frame codec is a single JSON line (the journal's format family).

use crate::export::Cell;
use crate::trace::TraceEvent;
use parking_lot::Mutex;
use serde::json::{self, Fields, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Version stamped into every stat frame; bump on any field change.
/// Readers skip fields they don't know and tolerate newer versions
/// (forward-compat mirrors the journal parser's lenient mode).
pub const TELEMETRY_SCHEMA: i64 = 1;

/// Default publish interval: frequent enough that `acfc top` feels
/// live, rare enough that aggregation cost is noise next to a solver
/// iteration.
pub const DEFAULT_TELEMETRY_INTERVAL: Duration = Duration::from_millis(100);

/// Traffic this rank has exchanged with one peer, cumulative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeerTraffic {
    /// Peer rank.
    pub peer: usize,
    /// Messages sent to the peer.
    pub msgs: u64,
    /// Wire bytes sent to the peer.
    pub bytes: u64,
}

/// One periodic per-rank telemetry frame. All counters are cumulative
/// since the rank's epoch, so a consumer that misses frames still reads
/// correct totals.
#[derive(Debug, Clone, PartialEq)]
pub struct StatFrame {
    /// Frame schema version ([`TELEMETRY_SCHEMA`] at write time).
    pub schema: i64,
    /// The rank this frame describes.
    pub rank: usize,
    /// Monotonic frame number per rank.
    pub seq: u64,
    /// Milliseconds since the rank's trace epoch at frame time.
    pub at_ms: u64,
    /// Phase the rank was executing when the frame was cut.
    pub phase: String,
    /// Cumulative compute-span microseconds (overlapped compute is in
    /// `overlap_us`, not here).
    pub compute_us: u64,
    /// Cumulative blocked (receive + barrier) microseconds.
    pub wait_us: u64,
    /// Cumulative overlapped-compute microseconds.
    pub overlap_us: u64,
    /// Cumulative send/reduce busy microseconds.
    pub comm_us: u64,
    /// Per-peer cumulative send traffic, sorted by peer.
    pub peers: Vec<PeerTraffic>,
    /// Last checkpoint epoch the rank completed (0 = none yet).
    pub checkpoint_epoch: u64,
    /// Engine executing the run (`"kernel"`).
    pub engine: String,
    /// Reserved; written as 0 and ignored by readers.
    pub queue_depth: u64,
    /// Reserved; written as 0 and ignored by readers.
    pub dropped: u64,
}

impl StatFrame {
    /// Total busy microseconds (compute + overlap + comm).
    pub fn busy_us(&self) -> u64 {
        self.compute_us + self.overlap_us + self.comm_us
    }
}

/// Encode a frame as one JSON line (no trailing newline).
pub fn encode_stat_frame(f: &StatFrame) -> String {
    let peers = f
        .peers
        .iter()
        .map(|p| {
            Value::obj(vec![
                ("peer", Value::Int(p.peer as i128)),
                ("msgs", Value::Int(p.msgs as i128)),
                ("bytes", Value::Int(p.bytes as i128)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("type", Value::Str("stat".into())),
        ("schema", Value::Int(f.schema as i128)),
        ("rank", Value::Int(f.rank as i128)),
        ("seq", Value::Int(f.seq as i128)),
        ("at_ms", Value::Int(f.at_ms as i128)),
        ("phase", Value::Str(f.phase.clone())),
        ("compute_us", Value::Int(f.compute_us as i128)),
        ("wait_us", Value::Int(f.wait_us as i128)),
        ("overlap_us", Value::Int(f.overlap_us as i128)),
        ("comm_us", Value::Int(f.comm_us as i128)),
        ("peers", Value::Arr(peers)),
        ("checkpoint_epoch", Value::Int(f.checkpoint_epoch as i128)),
        ("engine", Value::Str(f.engine.clone())),
        ("queue_depth", Value::Int(f.queue_depth as i128)),
        ("dropped", Value::Int(f.dropped as i128)),
    ])
    .to_string()
}

/// Decode a frame from one JSON line. Unknown extra fields are ignored
/// and newer schema versions are accepted (the known fields are read
/// best-effort), mirroring the journal reader's forward-compat rules.
pub fn parse_stat_frame(line: &str) -> Result<StatFrame, String> {
    let doc = json::parse(line).map_err(|e| format!("stat frame: {e}"))?;
    let v = Fields::new(&doc, "stat frame");
    if v.str("type")? != "stat" {
        return Err("stat frame: not a `stat` record".into());
    }
    let peers = match v.objs("peers") {
        Ok(items) => items
            .map(|p| {
                Ok(PeerTraffic {
                    peer: p.int("peer")?,
                    msgs: p.int("msgs")?,
                    bytes: p.int("bytes")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        Err(_) => Vec::new(),
    };
    Ok(StatFrame {
        schema: v.int("schema")?,
        rank: v.int("rank")?,
        seq: v.int("seq")?,
        at_ms: v.int("at_ms")?,
        phase: v.str("phase")?,
        compute_us: v.int("compute_us")?,
        wait_us: v.int("wait_us")?,
        overlap_us: v.int("overlap_us")?,
        comm_us: v.int("comm_us")?,
        peers,
        checkpoint_epoch: v.int("checkpoint_epoch")?,
        engine: v.str("engine")?,
        queue_depth: v.int("queue_depth")?,
        dropped: v.int("dropped")?,
    })
}

/// The telemetry spool file for `rank` under `dir` — the file channel
/// `acfc top DIR` polls while the run is live.
pub fn spool_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("telemetry-rank-{rank}.jsonl"))
}

/// How a rank publishes telemetry; see [`TelemetrySink::new`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Minimum gap between published frames.
    pub interval: Duration,
    /// Spool file directory (`telemetry-rank-<r>.jsonl` is created in
    /// it); `None` writes no spool.
    pub spool_dir: Option<PathBuf>,
    /// Engine label stamped into frames (`"kernel"`: every run takes
    /// the compiled-kernel path).
    pub engine: String,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            interval: DEFAULT_TELEMETRY_INTERVAL,
            spool_dir: None,
            engine: "kernel".into(),
        }
    }
}

/// What a rank has done so far: the whole-run [`Cell`] plus the
/// per-peer send traffic a frame reports.
#[derive(Default)]
struct Live {
    cell: Cell,
    /// peer -> (messages sent, wire bytes sent)
    per_peer: BTreeMap<usize, (u64, u64)>,
}

/// One rank's live aggregation state: the communicator's record path
/// feeds every event through [`Cell::add`], and the running cell is cut
/// into a [`StatFrame`] at most once per interval. The spool file is
/// touched only at publish time.
pub struct TelemetrySink {
    config: TelemetryConfig,
    live: Mutex<Live>,
    checkpoint_epoch: AtomicU64,
    frame_seq: AtomicU64,
    last_publish: Mutex<Option<Instant>>,
    spool: Mutex<Option<std::fs::File>>,
}

impl TelemetrySink {
    /// A sink for one rank with the given publication config.
    pub fn new(config: TelemetryConfig) -> TelemetrySink {
        TelemetrySink {
            config,
            live: Mutex::new(Live::default()),
            checkpoint_epoch: AtomicU64::new(0),
            frame_seq: AtomicU64::new(0),
            last_publish: Mutex::new(None),
            spool: Mutex::new(None),
        }
    }

    /// Account one traced event.
    pub fn add(&self, event: &TraceEvent) {
        self.live.lock().cell.add(event);
    }

    /// Account one message of `bytes` sent to `peer`.
    pub fn add_send(&self, peer: usize, bytes: usize) {
        let mut live = self.live.lock();
        let e = live.per_peer.entry(peer).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes as u64;
    }

    /// Record that checkpoint `epoch` completed.
    pub fn note_checkpoint(&self, epoch: u64) {
        self.checkpoint_epoch.store(epoch, Ordering::Relaxed);
    }

    /// Whether the publish interval has elapsed since the last frame.
    /// Cheap enough for the record hot path (one mutex try-lock; a
    /// contended lock means someone else is publishing — skip).
    pub fn due(&self) -> bool {
        match self.last_publish.try_lock() {
            Some(last) => match *last {
                Some(t) => t.elapsed() >= self.config.interval,
                None => true,
            },
            None => false,
        }
    }

    /// Cut a frame from the current cell and append it to the spool
    /// file (if configured), returning it. `rank` and `phase` come from
    /// the communicator; `at` is time since its epoch.
    pub fn publish(&self, rank: usize, phase: &str, at: Duration) -> StatFrame {
        *self.last_publish.lock() = Some(Instant::now());
        let (cell, peers) = {
            let live = self.live.lock();
            let peers = live
                .per_peer
                .iter()
                .map(|(&peer, &(msgs, bytes))| PeerTraffic { peer, msgs, bytes })
                .collect();
            (live.cell, peers)
        };
        let frame = StatFrame {
            schema: TELEMETRY_SCHEMA,
            rank,
            seq: self.frame_seq.fetch_add(1, Ordering::Relaxed),
            at_ms: at.as_millis() as u64,
            phase: phase.to_string(),
            compute_us: cell.compute.as_micros() as u64,
            wait_us: cell.wait.as_micros() as u64,
            overlap_us: cell.overlap.as_micros() as u64,
            comm_us: cell.comm.as_micros() as u64,
            peers,
            checkpoint_epoch: self.checkpoint_epoch.load(Ordering::Relaxed),
            engine: self.config.engine.clone(),
            queue_depth: 0,
            dropped: 0,
        };
        self.spool_append(&frame);
        frame
    }

    fn spool_append(&self, frame: &StatFrame) {
        let Some(dir) = self.config.spool_dir.as_deref() else {
            return;
        };
        let mut spool = self.spool.lock();
        if spool.is_none() {
            let _ = std::fs::create_dir_all(dir);
            *spool = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(spool_path(dir, frame.rank))
                .ok();
        }
        if let Some(f) = spool.as_mut() {
            // spool I/O failures must never take the run down: the
            // telemetry plane degrades, the solver does not
            let _ = writeln!(f, "{}", encode_stat_frame(frame));
            let _ = f.flush();
        }
    }
}

/// Read every frame from a rank's spool file, skipping unparsable lines
/// (a live writer may be mid-line); returns frames plus the skip count.
pub fn read_spool(path: &Path) -> std::io::Result<(Vec<StatFrame>, usize)> {
    let text = std::fs::read_to_string(path)?;
    let mut frames = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_stat_frame(line) {
            Ok(f) => frames.push(f),
            Err(_) => skipped += 1,
        }
    }
    Ok((frames, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    fn frame(rank: usize, seq: u64) -> StatFrame {
        StatFrame {
            schema: TELEMETRY_SCHEMA,
            rank,
            seq,
            at_ms: 1234,
            phase: "sync_0".into(),
            compute_us: 500,
            wait_us: 100,
            overlap_us: 40,
            comm_us: 7,
            peers: vec![
                PeerTraffic {
                    peer: 1,
                    msgs: 3,
                    bytes: 96,
                },
                PeerTraffic {
                    peer: 2,
                    msgs: 1,
                    bytes: 8,
                },
            ],
            checkpoint_epoch: 2,
            engine: "kernel".into(),
            queue_depth: 1,
            dropped: 0,
        }
    }

    #[test]
    fn codec_round_trips() {
        let f = frame(3, 17);
        let line = encode_stat_frame(&f);
        assert_eq!(parse_stat_frame(&line).unwrap(), f);
    }

    #[test]
    fn parser_ignores_unknown_fields_and_newer_schema() {
        let mut f = frame(0, 0);
        f.schema = TELEMETRY_SCHEMA + 5;
        let line = encode_stat_frame(&f);
        // splice an extra field a future schema might add
        let future = line.replacen("{", "{\"future_field\": 42, ", 1);
        let got = parse_stat_frame(&future).unwrap();
        assert_eq!(got, f);
    }

    #[test]
    fn parser_rejects_non_stat_records() {
        assert!(parse_stat_frame("{\"type\":\"event\"}").is_err());
        assert!(parse_stat_frame("not json").is_err());
    }

    #[test]
    fn negative_counters_are_typed_errors_not_wrapped_values() {
        let line = encode_stat_frame(&frame(1, 7));
        for field in ["rank", "seq", "wait_us", "checkpoint_epoch"] {
            let bad = line.replace(&format!("\"{field}\":"), &format!("\"{field}\":-"));
            let err = parse_stat_frame(&bad).unwrap_err();
            assert!(err.contains(&format!("`{field}` out of range")), "{err}");
        }
    }

    #[test]
    fn sink_publishes_cumulative_counters_and_spools() {
        let dir = std::env::temp_dir().join(format!("acf-telem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = TelemetrySink::new(TelemetryConfig {
            interval: Duration::ZERO,
            spool_dir: Some(dir.clone()),
            engine: "kernel".into(),
        });
        let span = |kind, start_us: u64, end_us: u64| TraceEvent {
            kind,
            start: Duration::from_micros(start_us),
            end: Duration::from_micros(end_us),
            peer: None,
            elems: 0,
            bytes: 0,
            phase: 0,
            seq: None,
        };
        sink.add(&span(EventKind::Compute, 0, 300));
        sink.add(&span(EventKind::Barrier, 300, 350));
        sink.add_send(1, 64);
        sink.add_send(1, 64);
        sink.note_checkpoint(4);
        let f1 = sink.publish(0, "main", Duration::from_millis(10));
        sink.add(&span(EventKind::Compute, 350, 550));
        sink.add(&span(EventKind::Overlap, 550, 560));
        let f2 = sink.publish(0, "sync_0", Duration::from_millis(20));
        assert_eq!((f1.compute_us, f1.wait_us), (300, 50));
        assert_eq!(f2.compute_us, 500, "counters are cumulative");
        assert_eq!(f2.overlap_us, 10, "overlap is kept out of compute_us");
        assert_eq!(f2.seq, f1.seq + 1);
        assert_eq!(f2.checkpoint_epoch, 4);
        assert_eq!(
            f2.peers,
            vec![PeerTraffic {
                peer: 1,
                msgs: 2,
                bytes: 128
            }]
        );
        let (frames, skipped) = read_spool(&spool_path(&dir, 0)).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(frames, vec![f1, f2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interval_gates_publication() {
        let sink = TelemetrySink::new(TelemetryConfig {
            interval: Duration::from_secs(3600),
            ..TelemetryConfig::default()
        });
        assert!(sink.due(), "first frame is always due");
        sink.publish(0, "main", Duration::ZERO);
        assert!(!sink.due(), "next frame waits out the interval");
    }

    #[test]
    fn exposed_pct_and_busy() {
        use crate::export::exposed_pct;
        let mut f = frame(0, 0);
        f.compute_us = 600;
        f.overlap_us = 100;
        f.comm_us = 100;
        f.wait_us = 200;
        assert_eq!(f.busy_us(), 800);
        // the one exposed-communication definition, fed frame counters
        let us = Duration::from_micros;
        let exposed = exposed_pct(us(f.wait_us), us(f.overlap_us)).unwrap();
        assert!((exposed - 100.0 * 200.0 / 300.0).abs() < 1e-9, "{exposed}");
        assert_eq!(exposed_pct(Duration::ZERO, Duration::ZERO), None);
    }

    #[test]
    fn read_spool_skips_partial_lines() {
        let dir = std::env::temp_dir().join(format!("acf-telem-part-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = spool_path(&dir, 1);
        let good = encode_stat_frame(&frame(1, 0));
        std::fs::write(&path, format!("{good}\n{{\"type\":\"stat\",\"ra")).unwrap();
        let (frames, skipped) = read_spool(&path).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_frame() -> impl Strategy<Value = StatFrame> {
        (
            (0usize..64, 0u64..1_000_000, 0u64..u32::MAX as u64),
            (0usize..4).prop_map(|i| ["", "main", "sync_0", "reduce_res"][i].to_string()),
            (0u64..u32::MAX as u64, 0u64..u32::MAX as u64),
            (0u64..u32::MAX as u64, 0u64..u32::MAX as u64),
            proptest::collection::vec((0usize..64, 0u64..1_000_000, 0u64..u32::MAX as u64), 0..6),
            ((0u64..1_000, 0u64..64, 0u64..1_000), proptest::bool::ANY),
        )
            .prop_map(
                |((rank, seq, at_ms), phase, (c, w), (o, m), peers, ((ck, qd, dr), kernel))| {
                    StatFrame {
                        schema: TELEMETRY_SCHEMA,
                        rank,
                        seq,
                        at_ms,
                        phase,
                        compute_us: c,
                        wait_us: w,
                        overlap_us: o,
                        comm_us: m,
                        peers: peers
                            .into_iter()
                            .map(|(peer, msgs, bytes)| PeerTraffic { peer, msgs, bytes })
                            .collect(),
                        checkpoint_epoch: ck,
                        queue_depth: qd,
                        dropped: dr,
                        engine: if kernel {
                            "kernel".into()
                        } else {
                            "tree".into()
                        },
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// encode → parse is the identity for every frame shape.
        #[test]
        fn stat_frame_codec_round_trips(frame in arb_frame()) {
            let line = encode_stat_frame(&frame);
            prop_assert!(!line.contains('\n'), "one frame = one line");
            let got = parse_stat_frame(&line).expect("own encoding parses");
            prop_assert_eq!(got, frame);
        }
    }
}
