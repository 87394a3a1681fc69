//! The pluggable transport layer: a [`Transport`] carries tagged `f64`
//! payloads between ranks, and everything above it — the [`crate::Comm`]
//! collectives, tracing, and the SPMD interpreter hooks — is
//! backend-agnostic. The in-process crossbeam backend
//! ([`crate::inproc`]) and the multi-process TCP backend (crate
//! `autocfd-runtime-net`) both plug in here.
//!
//! The primitive operations are *nonblocking*: [`Transport::isend`] and
//! [`Transport::irecv`] post an operation and return a typed request
//! handle ([`SendRequest`] / [`RecvRequest`]); the completion operations
//! [`Transport::wait_send`], [`Transport::wait_recv`],
//! [`Transport::wait_all_recv`] and [`Transport::test_recv`] retire
//! them. There is no blocking send/recv pair in the trait — callers
//! that want blocking semantics post and immediately wait (the
//! [`crate::Comm`] convenience methods do exactly that), so backends
//! only implement the nonblocking core.
//!
//! Backends that deliver messages through a single inbox channel (both
//! shipped backends do) share [`MatchingInbox`], so tag-matching, message
//! parking, and FIFO-per-`(from, tag)` ordering behave identically
//! in-process and over the wire.

use crate::error::CommError;
use crossbeam::channel::{Receiver, RecvTimeoutError};

pub use crate::inproc::InprocTransport;

// The multi-process TCP backend (`TcpTransport`) lives in the
// `autocfd-runtime-net` crate, which depends on this one, so it cannot
// be re-exported here without a crate cycle; the `autocfd::transport`
// facade module re-exports both backends side by side.
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// First tag of the band reserved for the default dissemination barrier
/// (round `k` uses `BARRIER_TAG_BASE + k`). User-visible schedules use
/// small tags and the collectives in `comm.rs` use `u64::MAX - 1..=4`,
/// so a 64-tag band below those is safely out of everyone's way.
pub const BARRIER_TAG_BASE: u64 = u64::MAX - 100;

/// Cumulative wire-level counters for one rank, as reported by a
/// backend: message and byte totals actually moved on its "wire"
/// (channel payloads in-process, framed TCP bytes over sockets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Messages handed to the wire.
    pub msgs_sent: u64,
    /// Bytes handed to the wire (including any framing overhead).
    pub bytes_sent: u64,
    /// Messages taken off the wire.
    pub msgs_recvd: u64,
    /// Bytes taken off the wire.
    pub bytes_recvd: u64,
}

impl WireStats {
    /// Accumulate another rank's counters into this one.
    pub fn merge(&mut self, other: &WireStats) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recvd += other.msgs_recvd;
        self.bytes_recvd += other.bytes_recvd;
    }
}

/// Handle for a posted nonblocking send ([`Transport::isend`]).
///
/// Both shipped backends buffer outgoing messages (a channel in-process,
/// a bounded per-peer write queue over TCP), so a send request is
/// logically complete the moment it is posted; the handle carries the
/// wire footprint for [`Transport::wait_send`] to report. The handle is
/// `#[must_use]` so a posted send cannot be silently forgotten.
#[derive(Debug)]
#[must_use = "complete the send with `wait_send` (or drop it knowingly)"]
pub struct SendRequest {
    /// Destination rank the message was posted to.
    pub to: usize,
    /// Tag the message was posted under.
    pub tag: u64,
    /// Wire bytes enqueued at post time.
    pub wire_bytes: usize,
    /// Per-sender monotonic sequence number stamped on the message
    /// (first send is 1; 0 means the backend does not stamp). Together
    /// with the sending rank this forms the causality span id that the
    /// matching receive records, letting the exporter draw send→recv
    /// flow edges and the advisor measure the cross-rank critical path.
    pub seq: u64,
}

/// Handle for a posted nonblocking receive ([`Transport::irecv`]).
///
/// Posting is infallible and purely local: the handle records the
/// `(from, tag)` the caller wants to match. [`Transport::test_recv`]
/// may complete it early, caching the payload inside the handle so a
/// later [`Transport::wait_recv`] returns it without touching the
/// inbox; a completion observed by `test_recv` is therefore never lost.
#[derive(Debug)]
#[must_use = "complete the receive with `wait_recv` or poll it with `test_recv`"]
pub struct RecvRequest {
    /// Source rank to match.
    pub from: usize,
    /// Tag to match.
    pub tag: u64,
    /// Payload cached by an early completion (`test_recv`):
    /// `(payload, wire_bytes, sender_seq)`.
    done: Option<(Vec<f64>, usize, u64)>,
}

impl RecvRequest {
    /// A fresh (incomplete) receive request for `(from, tag)`.
    pub fn new(from: usize, tag: u64) -> Self {
        RecvRequest {
            from,
            tag,
            done: None,
        }
    }

    /// Whether the request already holds its matched payload.
    pub fn is_done(&self) -> bool {
        self.done.is_some()
    }

    /// Store an early-completed payload (used by backends from
    /// `test_recv`); `seq` is the sender's sequence stamp (0 = none).
    /// Panics if the request is already complete.
    pub fn complete(&mut self, payload: Vec<f64>, wire_bytes: usize, seq: u64) {
        assert!(self.done.is_none(), "receive request completed twice");
        self.done = Some((payload, wire_bytes, seq));
    }

    /// Take the cached payload out of the handle, if any.
    pub fn take_done(&mut self) -> Option<(Vec<f64>, usize, u64)> {
        self.done.take()
    }
}

/// A point-to-point message carrier for one rank of an SPMD program.
///
/// The required primitives are nonblocking: [`Transport::isend`] posts a
/// buffered send, [`Transport::wait_recv`] / [`Transport::test_recv`]
/// retire receives posted with [`Transport::irecv`]. Matching is on
/// `(from, tag)` with FIFO order per pair. All completion paths return
/// the number of *wire bytes* moved so the profiler can attribute
/// traffic. All methods take `&self`: a transport is shared behind the
/// [`crate::Comm`] owned by its rank's thread, and backends synchronize
/// internally.
pub trait Transport: Send {
    /// This endpoint's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Post a nonblocking send of `payload` to rank `to` under `tag`.
    /// The payload is buffered by the backend, so the returned request
    /// is complete as soon as posting succeeds. Fails only when the
    /// peer is known dead (backends without failure detection may
    /// silently drop instead).
    fn isend(&self, to: usize, tag: u64, payload: &[f64]) -> Result<SendRequest, CommError>;

    /// Post a nonblocking receive for a message from `from` under
    /// `tag`. Posting is local and infallible; errors surface at
    /// completion time.
    fn irecv(&self, from: usize, tag: u64) -> RecvRequest {
        RecvRequest::new(from, tag)
    }

    /// Complete a send request, returning the wire bytes moved. Both
    /// shipped backends buffer sends, so the default returns
    /// immediately; a backend with real send completion would override
    /// this and honor `timeout`.
    fn wait_send(&self, req: SendRequest, _timeout: Duration) -> Result<usize, CommError> {
        Ok(req.wire_bytes)
    }

    /// Block until the receive posted as `req` completes (or `timeout`
    /// expires), returning the payload, its wire size, and the sender's
    /// sequence stamp (0 when the backend does not stamp). If
    /// [`Transport::test_recv`] already completed the request, the
    /// cached payload is returned without blocking.
    fn wait_recv(
        &self,
        req: RecvRequest,
        timeout: Duration,
    ) -> Result<(Vec<f64>, usize, u64), CommError>;

    /// Poll a receive request without blocking. Returns `Ok(true)` once
    /// the matching message has arrived (the payload is cached in the
    /// handle for the eventual `wait_recv`), `Ok(false)` while it is
    /// still in flight, and an error if the peer is known dead with no
    /// matching message left to drain.
    fn test_recv(&self, req: &mut RecvRequest) -> Result<bool, CommError>;

    /// Complete a batch of receive requests in order, returning their
    /// payloads. Equivalent to calling [`Transport::wait_recv`] on each
    /// request; the first failure aborts the batch.
    fn wait_all_recv(
        &self,
        reqs: Vec<RecvRequest>,
        timeout: Duration,
    ) -> Result<Vec<(Vec<f64>, usize, u64)>, CommError> {
        reqs.into_iter()
            .map(|req| self.wait_recv(req, timeout))
            .collect()
    }

    /// Synchronize all ranks. The default is a dissemination barrier
    /// built on the nonblocking core (`isend`/`wait_send` +
    /// `irecv`/`wait_recv`) over the reserved tag band — ⌈log₂ n⌉
    /// rounds, no coordinator. Backends with a cheaper native primitive
    /// (the in-process backend has `std::sync::Barrier`) override this.
    fn barrier(&self, timeout: Duration) -> Result<(), CommError> {
        let n = self.size();
        let rank = self.rank();
        let mut round = 0u64;
        let mut step = 1usize;
        while step < n {
            let to = (rank + step) % n;
            let from = (rank + n - step) % n;
            let send = self.isend(to, BARRIER_TAG_BASE + round, &[])?;
            self.wait_send(send, timeout)?;
            let recv = self.irecv(from, BARRIER_TAG_BASE + round);
            self.wait_recv(recv, timeout)?;
            step <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Cumulative wire counters for this rank. Backends that do not
    /// track traffic return zeros.
    fn wire_stats(&self) -> WireStats {
        WireStats::default()
    }

    /// Release wire resources (close sockets, join I/O threads). Called
    /// once when the rank finishes; the default is a no-op.
    fn shutdown(&self) {}
}

/// What a backend's delivery path feeds into a [`MatchingInbox`].
#[derive(Debug)]
pub enum InboxMsg {
    /// A payload from `from` under `tag`; `wire_bytes` is its size as
    /// moved on the backend's wire.
    Data {
        /// Sending rank.
        from: usize,
        /// Message tag.
        tag: u64,
        /// The values.
        payload: Vec<f64>,
        /// Wire footprint of this message.
        wire_bytes: usize,
        /// Sender's per-endpoint sequence stamp (0 = unstamped).
        seq: u64,
    },
    /// The connection to `peer` is gone; no further messages from it can
    /// arrive. `detail` says how it died ("connection reset", ...).
    PeerGone {
        /// The vanished rank.
        peer: usize,
        /// Backend-specific cause.
        detail: String,
    },
}

/// A parked message: `(from, tag, payload, wire_bytes, seq)`.
type ParkedMsg = (usize, u64, Vec<f64>, usize, u64);

/// Tag-matching receive logic shared by inbox-style backends.
///
/// Messages that arrive while the receiver waits for a different
/// `(from, tag)` are parked and matched later, preserving arrival order
/// per `(from, tag)` pair. A [`InboxMsg::PeerGone`] notice fails only
/// receives targeting that peer — and only after every message the peer
/// sent before dying has been drained.
pub struct MatchingInbox {
    rank: usize,
    rx: Receiver<InboxMsg>,
    /// Messages awaiting a matching `recv`.
    parked: Mutex<VecDeque<ParkedMsg>>,
    /// Peers known dead, with the failure detail.
    gone: Mutex<BTreeMap<usize, String>>,
}

impl MatchingInbox {
    /// An inbox for `rank` fed through `rx`.
    pub fn new(rank: usize, rx: Receiver<InboxMsg>) -> Self {
        MatchingInbox {
            rank,
            rx,
            parked: Mutex::new(VecDeque::new()),
            gone: Mutex::new(BTreeMap::new()),
        }
    }

    /// Take the first parked message matching `(from, tag)`.
    fn take_parked(&self, from: usize, tag: u64) -> Option<(Vec<f64>, usize, u64)> {
        let mut parked = self.parked.lock();
        let idx = parked
            .iter()
            .position(|(f, t, _, _, _)| *f == from && *t == tag)?;
        let (_, _, payload, wire, seq) = parked.remove(idx).expect("index from position");
        Some((payload, wire, seq))
    }

    /// Move every message already sitting in the channel into the parked
    /// queue (used before declaring a dead peer's stream exhausted, and
    /// by the nonblocking `try_recv` poll).
    fn drain_pending(&self) {
        while let Ok(msg) = self.rx.try_recv() {
            self.absorb(msg);
        }
    }

    fn absorb(&self, msg: InboxMsg) {
        match msg {
            InboxMsg::Data {
                from,
                tag,
                payload,
                wire_bytes,
                seq,
            } => self
                .parked
                .lock()
                .push_back((from, tag, payload, wire_bytes, seq)),
            InboxMsg::PeerGone { peer, detail } => {
                self.gone.lock().entry(peer).or_insert(detail);
            }
        }
    }

    /// Whether `peer` has been reported dead; returns the detail.
    fn peer_gone(&self, peer: usize) -> Option<String> {
        self.gone.lock().get(&peer).cloned()
    }

    /// Blocking tag-matched receive: waits until a message from
    /// `from` carrying `tag` arrives, or errors on timeout/peer death.
    pub fn recv(
        &self,
        from: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<(Vec<f64>, usize, u64), CommError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(found) = self.take_parked(from, tag) {
                return Ok(found);
            }
            if let Some(detail) = self.peer_gone(from) {
                // The peer died; anything it managed to send is already in
                // the channel. Park it all and give matching one last look.
                self.drain_pending();
                if let Some(found) = self.take_parked(from, tag) {
                    return Ok(found);
                }
                return Err(CommError::disconnected(self.rank, from, detail).with_tag(tag));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(msg) => self.absorb(msg),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::timeout(self.rank, from, tag));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Every sender handle dropped: the whole job is tearing
                    // down around a rank still waiting.
                    return Err(
                        CommError::disconnected(self.rank, from, "all peers shut down")
                            .with_tag(tag),
                    );
                }
            }
        }
    }

    /// Nonblocking tag-matched poll; see [`Transport::test_recv`] for
    /// the contract. Returns the matched payload if one is available
    /// now, `None` if the caller should poll again later, and an error
    /// once the peer is known dead with nothing left to drain.
    pub fn try_recv(
        &self,
        from: usize,
        tag: u64,
    ) -> Result<Option<(Vec<f64>, usize, u64)>, CommError> {
        if let Some(found) = self.take_parked(from, tag) {
            return Ok(Some(found));
        }
        self.drain_pending();
        if let Some(found) = self.take_parked(from, tag) {
            return Ok(Some(found));
        }
        if let Some(detail) = self.peer_gone(from) {
            return Err(CommError::disconnected(self.rank, from, detail).with_tag(tag));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CommErrorKind;
    use crossbeam::channel::unbounded;

    const T: Duration = Duration::from_millis(200);

    #[test]
    fn matches_and_parks_out_of_order() {
        let (tx, rx) = unbounded();
        let inbox = MatchingInbox::new(0, rx);
        tx.send(InboxMsg::Data {
            from: 1,
            tag: 7,
            payload: vec![1.0],
            wire_bytes: 8,
            seq: 1,
        })
        .unwrap();
        tx.send(InboxMsg::Data {
            from: 1,
            tag: 5,
            payload: vec![2.0],
            wire_bytes: 8,
            seq: 1,
        })
        .unwrap();
        // Ask for tag 5 first: tag 7 must be parked, not lost.
        assert_eq!(inbox.recv(1, 5, T).unwrap().0, vec![2.0]);
        assert_eq!(inbox.recv(1, 7, T).unwrap().0, vec![1.0]);
    }

    #[test]
    fn fifo_per_from_tag_pair() {
        let (tx, rx) = unbounded();
        let inbox = MatchingInbox::new(0, rx);
        for v in [1.0, 2.0, 3.0] {
            tx.send(InboxMsg::Data {
                from: 2,
                tag: 1,
                payload: vec![v],
                wire_bytes: 8,
                seq: 1,
            })
            .unwrap();
        }
        for v in [1.0, 2.0, 3.0] {
            assert_eq!(inbox.recv(2, 1, T).unwrap().0, vec![v]);
        }
    }

    #[test]
    fn timeout_when_nothing_matches() {
        let (_tx, rx) = unbounded::<InboxMsg>();
        let inbox = MatchingInbox::new(3, rx);
        let err = inbox.recv(0, 42, Duration::from_millis(30)).unwrap_err();
        assert!(err.is_timeout());
        assert_eq!((err.rank, err.peer, err.tag), (3, Some(0), Some(42)));
    }

    #[test]
    fn peer_gone_fails_only_after_draining_its_messages() {
        let (tx, rx) = unbounded();
        let inbox = MatchingInbox::new(0, rx);
        tx.send(InboxMsg::Data {
            from: 1,
            tag: 9,
            payload: vec![4.0],
            wire_bytes: 8,
            seq: 1,
        })
        .unwrap();
        tx.send(InboxMsg::PeerGone {
            peer: 1,
            detail: "connection reset".into(),
        })
        .unwrap();
        // The in-flight message is still delivered...
        assert_eq!(inbox.recv(1, 9, T).unwrap().0, vec![4.0]);
        // ...and only then does the dead peer surface, immediately (no
        // timeout wait) and with the backend detail.
        let err = inbox.recv(1, 9, T).unwrap_err();
        assert!(err.is_disconnected());
        assert_eq!(
            err.kind,
            CommErrorKind::Disconnected("connection reset".into())
        );
        assert_eq!(err.tag, Some(9));
    }

    #[test]
    fn peer_gone_does_not_affect_other_peers() {
        let (tx, rx) = unbounded();
        let inbox = MatchingInbox::new(0, rx);
        tx.send(InboxMsg::PeerGone {
            peer: 1,
            detail: String::new(),
        })
        .unwrap();
        tx.send(InboxMsg::Data {
            from: 2,
            tag: 1,
            payload: vec![5.0],
            wire_bytes: 8,
            seq: 1,
        })
        .unwrap();
        assert_eq!(inbox.recv(2, 1, T).unwrap().0, vec![5.0]);
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let (tx, rx) = unbounded();
        let inbox = MatchingInbox::new(0, rx);
        // Nothing there yet: poll says "in flight", instantly.
        assert!(inbox.try_recv(1, 3).unwrap().is_none());
        tx.send(InboxMsg::Data {
            from: 1,
            tag: 3,
            payload: vec![6.0],
            wire_bytes: 8,
            seq: 1,
        })
        .unwrap();
        assert_eq!(inbox.try_recv(1, 3).unwrap().unwrap().0, vec![6.0]);
        // Consumed: a second poll goes back to "in flight".
        assert!(inbox.try_recv(1, 3).unwrap().is_none());
    }

    #[test]
    fn try_recv_surfaces_dead_peer_after_drain() {
        let (tx, rx) = unbounded();
        let inbox = MatchingInbox::new(0, rx);
        tx.send(InboxMsg::Data {
            from: 1,
            tag: 2,
            payload: vec![7.0],
            wire_bytes: 8,
            seq: 1,
        })
        .unwrap();
        tx.send(InboxMsg::PeerGone {
            peer: 1,
            detail: "gone".into(),
        })
        .unwrap();
        // The buffered message still matches...
        assert_eq!(inbox.try_recv(1, 2).unwrap().unwrap().0, vec![7.0]);
        // ...then the poll fails fast instead of reporting "in flight".
        let err = inbox.try_recv(1, 2).unwrap_err();
        assert!(err.is_disconnected());
        // A different live peer is unaffected.
        assert!(inbox.try_recv(2, 2).unwrap().is_none());
    }
}
