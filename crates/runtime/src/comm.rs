//! The communicator: point-to-point messaging and collectives over any
//! [`Transport`], with per-rank statistics, phase labels, and an event
//! trace for the profiler.

use crate::error::CommError;
use crate::telemetry::{TelemetryConfig, TelemetrySink};
use crate::trace::{EventKind, Recorder, TraceEvent};
use crate::transport::{RecvRequest, SendRequest, Transport, WireStats};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default receive timeout; long enough for heavyweight tests, short
/// enough that a deadlocked exchange fails rather than hangs.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Reduction operators for [`Comm::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise maximum (CFD convergence error).
    Max,
    /// Elementwise minimum.
    Min,
    /// Elementwise sum.
    Sum,
}

impl ReduceOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Sum => a + b,
        }
    }
}

/// Per-rank communication statistics.
#[derive(Debug, Default)]
pub struct CommStats {
    /// Messages sent.
    pub msgs_sent: AtomicU64,
    /// Total f64 elements sent.
    pub elems_sent: AtomicU64,
    /// Barrier participations.
    pub barriers: AtomicU64,
    /// Allreduce participations.
    pub reduces: AtomicU64,
}

impl CommStats {
    /// Snapshot as plain numbers `(msgs, elems, barriers, reduces)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.msgs_sent.load(Ordering::Relaxed),
            self.elems_sent.load(Ordering::Relaxed),
            self.barriers.load(Ordering::Relaxed),
            self.reduces.load(Ordering::Relaxed),
        )
    }
}

/// One rank's endpoint into the communicator, generic over the wire: the
/// same collectives, tracing, and statistics run over the in-process
/// channel backend ([`crate::inproc`]) or the multi-process TCP backend
/// (`autocfd-runtime-net`).
pub struct Comm {
    transport: Box<dyn Transport>,
    stats: CommStats,
    timeout: Duration,
    /// Shared epoch for trace timestamps (same instant on every rank).
    epoch: Instant,
    /// Recorded communication events.
    trace: Mutex<Vec<TraceEvent>>,
    /// Phase names in first-entered order; trace events and errors refer
    /// to phases by index into this list.
    phases: Mutex<Vec<String>>,
    /// Index of the currently executing phase.
    phase: AtomicU32,
    /// Live telemetry sink, when enabled (see [`Comm::enable_telemetry`]).
    telemetry: Mutex<Option<Arc<TelemetrySink>>>,
}

impl Comm {
    /// Wrap a transport endpoint. `epoch` anchors trace timestamps and
    /// should be (approximately) the same instant on every rank;
    /// `timeout` bounds every receive.
    pub fn new(transport: Box<dyn Transport>, timeout: Duration, epoch: Instant) -> Comm {
        Comm {
            transport,
            stats: CommStats::default(),
            timeout,
            epoch,
            trace: Mutex::new(Vec::new()),
            phases: Mutex::new(vec!["main".to_string()]),
            phase: AtomicU32::new(0),
            telemetry: Mutex::new(None),
        }
    }

    /// Turn the live telemetry plane on: from now on this rank
    /// accumulates its events into periodic stat frames and spools them
    /// (if `config.spool_dir` is set).
    pub fn enable_telemetry(&self, config: TelemetryConfig) {
        *self.telemetry.lock() = Some(Arc::new(TelemetrySink::new(config)));
    }

    fn telemetry(&self) -> Option<Arc<TelemetrySink>> {
        self.telemetry.lock().clone()
    }

    /// Record that checkpoint `epoch` has completed on this rank; shows
    /// up in the next stat frame so observers can see checkpoint lag.
    pub fn note_checkpoint_epoch(&self, epoch: u64) {
        if let Some(sink) = self.telemetry() {
            sink.note_checkpoint(epoch);
        }
    }

    /// This rank's id (0-based).
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// This rank's statistics handle.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Wire-level counters from the transport (messages/bytes actually
    /// moved, including framing overhead on networked backends).
    pub fn wire_stats(&self) -> WireStats {
        self.transport.wire_stats()
    }

    /// Enter a named program phase (`sync_3`, `pre_1`, `reduce_err`, ...).
    /// Subsequent trace events and errors carry it; re-entering a name
    /// reuses its index.
    pub fn enter_phase(&self, name: &str) {
        let mut phases = self.phases.lock();
        let idx = match phases.iter().position(|p| p == name) {
            Some(i) => i,
            None => {
                phases.push(name.to_string());
                phases.len() - 1
            }
        };
        self.phase.store(idx as u32, Ordering::Relaxed);
    }

    /// Phase names in index order (parallel to `TraceEvent::phase`).
    pub fn phase_names(&self) -> Vec<String> {
        self.phases.lock().clone()
    }

    fn current_phase(&self) -> u32 {
        self.phase.load(Ordering::Relaxed)
    }

    fn current_phase_name(&self) -> String {
        let phases = self.phases.lock();
        phases
            .get(self.current_phase() as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// Attach the executing phase to a transport error.
    fn ctx(&self, e: CommError) -> CommError {
        let name = self.current_phase_name();
        e.with_phase(&name)
    }

    fn record(
        &self,
        kind: EventKind,
        start: Instant,
        peer: Option<usize>,
        elems: usize,
        bytes: usize,
        seq: Option<u64>,
    ) {
        let end = self.epoch.elapsed();
        self.push(TraceEvent {
            kind,
            start: start.duration_since(self.epoch),
            end,
            peer,
            elems,
            bytes,
            phase: self.current_phase(),
            seq,
        });
    }

    /// Append an event to the trace and, with telemetry on, to the live
    /// cell — cutting and spooling a stat frame when one is due.
    fn push(&self, event: TraceEvent) {
        self.trace.lock().push(event);
        let Some(sink) = self.telemetry() else { return };
        sink.add(&event);
        if sink.due() {
            sink.publish(
                self.rank(),
                &self.current_phase_name(),
                self.epoch.elapsed(),
            );
        }
    }

    /// The instant trace timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Drain this rank's recorded trace (see [`crate::trace`]).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace.lock())
    }

    /// Send `payload` to rank `to` with `tag`: [`Comm::isend`] completed
    /// at once. Buffered; never blocks.
    ///
    /// # Panics
    /// Panics if `to` is out of range or is this rank itself.
    pub fn send(&self, to: usize, tag: u64, payload: &[f64]) -> Result<(), CommError> {
        let req = self.isend(to, tag, payload)?;
        self.wait_send(req).map(|_| ())
    }

    /// Hand `payload` to the transport, counting it in the statistics.
    /// Records no trace event: [`Comm::isend`] adds one per message,
    /// the collectives one per collective.
    fn post(&self, to: usize, tag: u64, payload: &[f64]) -> Result<SendRequest, CommError> {
        assert!(to < self.size(), "send to rank {to} of {}", self.size());
        assert_ne!(to, self.rank(), "self-send is a schedule bug");
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .elems_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.transport
            .isend(to, tag, payload)
            .map_err(|e| self.ctx(e))
    }

    fn send_raw(&self, to: usize, tag: u64, payload: &[f64]) -> Result<usize, CommError> {
        let req = self.post(to, tag, payload)?;
        self.wait_send(req)
    }

    /// Receive the next message from `from` with `tag` (FIFO per
    /// `(from, tag)`); messages for other `(from, tag)` pairs arriving
    /// first are parked, preserving their own order.
    pub fn recv(&self, from: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        self.wait_recv(self.irecv(from, tag))
    }

    /// Post a nonblocking send of `payload` to rank `to` under `tag`.
    /// Both shipped backends buffer sends, so the returned request is
    /// already complete; the message's one `Send` trace event is
    /// recorded at post time.
    ///
    /// # Panics
    /// Panics if `to` is out of range or is this rank itself.
    pub fn isend(&self, to: usize, tag: u64, payload: &[f64]) -> Result<SendRequest, CommError> {
        let t0 = Instant::now();
        let req = self.post(to, tag, payload)?;
        if let Some(sink) = self.telemetry() {
            sink.add_send(to, req.wire_bytes);
        }
        self.record(
            EventKind::Send,
            t0,
            Some(to),
            payload.len(),
            req.wire_bytes,
            Some(req.seq),
        );
        Ok(req)
    }

    /// Complete a send request posted with [`Comm::isend`], returning
    /// its wire bytes.
    pub fn wait_send(&self, req: SendRequest) -> Result<usize, CommError> {
        self.transport
            .wait_send(req, self.timeout)
            .map_err(|e| self.ctx(e))
    }

    /// Post a nonblocking receive for a message from `from` under
    /// `tag`. Nothing is recorded until the request completes.
    pub fn irecv(&self, from: usize, tag: u64) -> RecvRequest {
        self.transport.irecv(from, tag)
    }

    /// Block until the receive posted as `req` completes, recording a
    /// `Recv` trace event spanning the wait (so hidden latency shows up
    /// as a short wait instead of a long one).
    pub fn wait_recv(&self, req: RecvRequest) -> Result<Vec<f64>, CommError> {
        self.finish_recv(Instant::now(), req)
    }

    /// Complete `req` and record the message's one `Recv` event, its
    /// span running from `t0`.
    fn finish_recv(&self, t0: Instant, req: RecvRequest) -> Result<Vec<f64>, CommError> {
        let from = req.from;
        let (payload, bytes, seq) = self.recv_raw(req)?;
        self.record(
            EventKind::Recv,
            t0,
            Some(from),
            payload.len(),
            bytes,
            Some(seq),
        );
        Ok(payload)
    }

    /// Poll a receive request without blocking; see
    /// [`Transport::test_recv`].
    pub fn test_recv(&self, req: &mut RecvRequest) -> Result<bool, CommError> {
        self.transport.test_recv(req).map_err(|e| self.ctx(e))
    }

    /// Complete a receive with a bounded spin before parking: poll
    /// [`Comm::test_recv`] a few dozen times (cheap when the message is
    /// already in flight — the common case right after an overlap
    /// split), then fall back to the blocking wait, which parks the
    /// thread instead of burning a core while a slow rank catches up.
    /// Records exactly one `Recv` trace event, like `wait_recv`.
    pub fn wait_recv_adaptive(&self, mut req: RecvRequest) -> Result<Vec<f64>, CommError> {
        const SPIN_LIMIT: u32 = 64;
        let t0 = Instant::now();
        for _ in 0..SPIN_LIMIT {
            if self.test_recv(&mut req)? {
                return self.finish_recv(t0, req);
            }
            std::hint::spin_loop();
        }
        std::thread::yield_now();
        self.finish_recv(t0, req)
    }

    /// Complete a receive without recording an event (the collectives
    /// record one event per collective, not per message).
    fn recv_raw(&self, req: RecvRequest) -> Result<(Vec<f64>, usize, u64), CommError> {
        self.transport
            .wait_recv(req, self.timeout)
            .map_err(|e| self.ctx(e))
    }

    /// Simultaneous exchange with a peer: send then receive. Safe against
    /// deadlock because sends are buffered.
    pub fn sendrecv(
        &self,
        peer: usize,
        send_tag: u64,
        payload: &[f64],
        recv_tag: u64,
    ) -> Result<Vec<f64>, CommError> {
        self.send(peer, send_tag, payload)?;
        self.recv(peer, recv_tag)
    }

    /// Block until all ranks arrive.
    pub fn barrier(&self) -> Result<(), CommError> {
        let t0 = Instant::now();
        self.stats.barriers.fetch_add(1, Ordering::Relaxed);
        self.transport
            .barrier(self.timeout)
            .map_err(|e| self.ctx(e))?;
        self.record(EventKind::Barrier, t0, None, 0, 0, None);
        Ok(())
    }

    /// All-reduce a single value with `op`; every rank returns the same
    /// result. Implemented as gather-to-0 + broadcast.
    pub fn allreduce(&self, value: f64, op: ReduceOp) -> Result<f64, CommError> {
        let t0 = Instant::now();
        self.stats.reduces.fetch_add(1, Ordering::Relaxed);
        const REDUCE_TAG: u64 = u64::MAX - 1;
        const BCAST_TAG: u64 = u64::MAX - 2;
        if self.size() == 1 {
            return Ok(value);
        }
        let mut bytes = 0usize;
        let result = if self.rank() == 0 {
            let mut acc = value;
            for src in 1..self.size() {
                let (v, b, _) = self.recv_raw(self.irecv(src, REDUCE_TAG))?;
                bytes += b;
                acc = op.apply(acc, v[0]);
            }
            for dst in 1..self.size() {
                bytes += self.send_raw(dst, BCAST_TAG, &[acc])?;
            }
            acc
        } else {
            bytes += self.send_raw(0, REDUCE_TAG, &[value])?;
            let (v, b, _) = self.recv_raw(self.irecv(0, BCAST_TAG))?;
            bytes += b;
            v[0]
        };
        self.record(EventKind::Reduce, t0, None, 1, bytes, None);
        Ok(result)
    }

    /// Gather every rank's `payload` at `root`: returns `Some(vec of
    /// per-rank payloads, in rank order)` on the root and `None`
    /// elsewhere.
    pub fn gather(&self, root: usize, payload: &[f64]) -> Result<Option<Vec<Vec<f64>>>, CommError> {
        const TAG: u64 = u64::MAX - 4;
        if self.rank() == root {
            let mut out = vec![Vec::new(); self.size()];
            out[root] = payload.to_vec();
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = self.recv(src, TAG)?;
                }
            }
            Ok(Some(out))
        } else {
            self.send(root, TAG, payload)?;
            Ok(None)
        }
    }

    /// Broadcast `payload` from `root` to all ranks; returns the payload
    /// on every rank.
    pub fn broadcast(&self, root: usize, payload: &[f64]) -> Result<Vec<f64>, CommError> {
        const TAG: u64 = u64::MAX - 3;
        if self.size() == 1 {
            return Ok(payload.to_vec());
        }
        if self.rank() == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send(dst, TAG, payload)?;
                }
            }
            Ok(payload.to_vec())
        } else {
            self.recv(root, TAG)
        }
    }

    /// Release wire resources (close sockets, join I/O threads). Safe to
    /// call more than once; dropping the `Comm` without calling it is
    /// also fine for the in-process backend.
    pub fn shutdown(&self) {
        self.transport.shutdown();
    }
}

impl Recorder for Comm {
    /// Append a span (typically [`EventKind::Compute`] from the
    /// interpreter) to this rank's trace under the current phase.
    fn record_span(&self, kind: EventKind, start: Instant, end: Instant) {
        self.push(TraceEvent {
            kind,
            start: start.duration_since(self.epoch),
            end: end.duration_since(self.epoch),
            peer: None,
            elems: 0,
            bytes: 0,
            phase: self.current_phase(),
            seq: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::{run_spmd, run_spmd_with_timeout};

    #[test]
    fn ring_pass() {
        let results = run_spmd(4, |comm| {
            let r = comm.rank();
            let n = comm.size();
            comm.send((r + 1) % n, 7, &[r as f64]).unwrap();
            comm.recv((r + n - 1) % n, 7).unwrap()[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn single_rank_works() {
        let results = run_spmd(1, |comm| {
            comm.barrier().unwrap();
            comm.allreduce(42.0, ReduceOp::Max).unwrap()
        });
        assert_eq!(results, vec![42.0]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1.0]).unwrap();
                comm.send(1, 2, &[2.0]).unwrap();
                comm.send(1, 3, &[3.0]).unwrap();
                0.0
            } else {
                // receive in reverse tag order: parking must kick in
                let c = comm.recv(0, 3).unwrap()[0];
                let b = comm.recv(0, 2).unwrap()[0];
                let a = comm.recv(0, 1).unwrap()[0];
                a * 100.0 + b * 10.0 + c
            }
        });
        assert_eq!(results[1], 123.0);
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                for k in 0..100 {
                    comm.send(1, 5, &[k as f64]).unwrap();
                }
                0.0
            } else {
                let mut prev = -1.0;
                for _ in 0..100 {
                    let v = comm.recv(0, 5).unwrap()[0];
                    assert!(v > prev, "FIFO violated: {v} after {prev}");
                    prev = v;
                }
                prev
            }
        });
        assert_eq!(results[1], 99.0);
    }

    #[test]
    fn sendrecv_symmetric_exchange_no_deadlock() {
        // all ranks exchange with both neighbors simultaneously
        let n = 6;
        let results = run_spmd(n, |comm| {
            let r = comm.rank();
            let mut acc = 0.0;
            if r > 0 {
                acc += comm.sendrecv(r - 1, 10, &[r as f64], 11).unwrap()[0];
            }
            if r + 1 < comm.size() {
                acc += comm.sendrecv(r + 1, 11, &[r as f64], 10).unwrap()[0];
            }
            acc
        });
        // interior ranks get left + right neighbor ids
        assert_eq!(results[2], 1.0 + 3.0);
        assert_eq!(results[0], 1.0);
        assert_eq!(results[n - 1], (n - 2) as f64);
    }

    #[test]
    fn allreduce_ops() {
        for (op, expect) in [
            (ReduceOp::Max, 3.0),
            (ReduceOp::Min, 0.0),
            (ReduceOp::Sum, 6.0),
        ] {
            let results = run_spmd(4, move |comm| {
                comm.allreduce(comm.rank() as f64, op).unwrap()
            });
            assert!(
                results.iter().all(|&v| v == expect),
                "{op:?} -> {results:?}"
            );
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = run_spmd(4, |comm| {
            let mine = vec![comm.rank() as f64; comm.rank() + 1];
            comm.gather(1, &mine).unwrap()
        });
        assert!(results[0].is_none() && results[2].is_none() && results[3].is_none());
        let g = results[1].as_ref().unwrap();
        assert_eq!(g.len(), 4);
        for (r, v) in g.iter().enumerate() {
            assert_eq!(v.len(), r + 1);
            assert!(v.iter().all(|&x| x == r as f64));
        }
    }

    #[test]
    fn gather_single_rank() {
        let results = run_spmd(1, |comm| comm.gather(0, &[7.0]).unwrap());
        assert_eq!(results[0].as_ref().unwrap()[0], vec![7.0]);
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let results = run_spmd(4, |comm| {
            let data = if comm.rank() == 2 {
                vec![9.0, 8.0]
            } else {
                vec![]
            };
            comm.broadcast(2, &data).unwrap()
        });
        assert!(results.iter().all(|v| v == &vec![9.0, 8.0]));
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_spmd(8, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // after the barrier everyone must observe all 8 increments
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn deadlock_surfaces_as_timeout() {
        let results = run_spmd_with_timeout(2, Duration::from_millis(50), |comm| {
            if comm.rank() == 0 {
                // rank 0 waits for a message rank 1 never sends
                comm.recv(1, 99)
            } else {
                Ok(vec![])
            }
        });
        let err = results[0].as_ref().unwrap_err();
        assert!(err.is_timeout());
        assert_eq!((err.rank, err.peer, err.tag), (0, Some(1), Some(99)));
    }

    #[test]
    fn errors_carry_the_entered_phase() {
        let results = run_spmd_with_timeout(2, Duration::from_millis(50), |comm| {
            comm.enter_phase("sync_7");
            if comm.rank() == 0 {
                comm.recv(1, 99)
            } else {
                Ok(vec![])
            }
        });
        let err = results[0].as_ref().unwrap_err();
        assert_eq!(err.phase.as_deref(), Some("sync_7"));
    }

    #[test]
    fn stats_count_traffic() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0.0; 10]).unwrap();
                comm.send(1, 2, &[0.0; 5]).unwrap();
            } else {
                comm.recv(0, 1).unwrap();
                comm.recv(0, 2).unwrap();
            }
            comm.barrier().unwrap();
            comm.stats().snapshot()
        });
        assert_eq!(results[0], (2, 15, 1, 0));
        assert_eq!(results[1], (0, 0, 1, 0));
    }

    #[test]
    fn wire_stats_count_bytes_both_ways() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0.0; 10]).unwrap();
            } else {
                comm.recv(0, 1).unwrap();
            }
            comm.barrier().unwrap();
            comm.wire_stats()
        });
        assert_eq!((results[0].msgs_sent, results[0].bytes_sent), (1, 80));
        assert_eq!((results[1].msgs_recvd, results[1].bytes_recvd), (1, 80));
    }

    #[test]
    fn trace_events_carry_phase_and_bytes() {
        let results = run_spmd(2, |comm| {
            comm.enter_phase("fill_0");
            if comm.rank() == 0 {
                comm.send(1, 1, &[1.0, 2.0]).unwrap();
            } else {
                comm.recv(0, 1).unwrap();
            }
            comm.enter_phase("reduce_err");
            comm.allreduce(1.0, ReduceOp::Max).unwrap();
            (comm.take_trace(), comm.phase_names())
        });
        let (trace, names) = &results[0];
        // "main" is index 0; entered phases follow in order
        assert_eq!(names, &["main", "fill_0", "reduce_err"]);
        let send = trace
            .iter()
            .find(|e| e.kind == EventKind::Send)
            .expect("send traced");
        assert_eq!(send.bytes, 16);
        assert_eq!(names[send.phase as usize], "fill_0");
        let reduce = trace
            .iter()
            .find(|e| e.kind == EventKind::Reduce)
            .expect("reduce traced");
        assert!(reduce.bytes > 0);
        assert_eq!(names[reduce.phase as usize], "reduce_err");
    }

    #[test]
    #[should_panic(expected = "SPMD rank panicked")]
    fn self_send_panics() {
        run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(0, 1, &[1.0]).unwrap();
            }
        });
    }

    #[test]
    fn large_payload_roundtrip() {
        let big: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
        let results = run_spmd(2, move |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &big).unwrap();
                true
            } else {
                let got = comm.recv(0, 1).unwrap();
                got.len() == 100_000 && got[99_999] == 99_999.0
            }
        });
        assert!(results[1]);
    }

    #[test]
    fn nonblocking_roundtrip_records_the_same_events_as_blocking() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                let req = comm.isend(1, 4, &[1.0, 2.0, 3.0]).unwrap();
                assert_eq!(comm.wait_send(req).unwrap(), 24);
            } else {
                let mut req = comm.irecv(0, 4);
                // poll until the message lands, then wait must hand back
                // the payload test_recv cached — never a lost completion
                while !comm.test_recv(&mut req).unwrap() {
                    std::thread::yield_now();
                }
                assert_eq!(comm.wait_recv(req).unwrap(), vec![1.0, 2.0, 3.0]);
            }
            comm.barrier().unwrap();
            comm.take_trace()
        });
        let send = results[0]
            .iter()
            .find(|e| e.kind == EventKind::Send)
            .expect("isend traced as a Send at post time");
        assert_eq!((send.peer, send.elems, send.bytes), (Some(1), 3, 24));
        let recv = results[1]
            .iter()
            .find(|e| e.kind == EventKind::Recv)
            .expect("wait_recv traced as a Recv");
        assert_eq!((recv.peer, recv.elems, recv.bytes), (Some(0), 3, 24));
    }

    #[test]
    fn adaptive_wait_delivers_and_records_one_event() {
        // fast path: message already sent when the waiter spins
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, &[5.0]).unwrap();
                comm.barrier().unwrap();
                vec![]
            } else {
                comm.barrier().unwrap();
                let req = comm.irecv(0, 9);
                let got = comm.wait_recv_adaptive(req).unwrap();
                let recvs = comm
                    .take_trace()
                    .iter()
                    .filter(|e| e.kind == EventKind::Recv)
                    .count();
                assert_eq!(recvs, 1, "adaptive wait must record exactly one Recv");
                got
            }
        });
        assert_eq!(results[1], vec![5.0]);

        // slow path: the sender stalls past the spin window, so the
        // waiter must park and still complete
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(30));
                comm.send(1, 9, &[7.0]).unwrap();
                vec![]
            } else {
                let req = comm.irecv(0, 9);
                comm.wait_recv_adaptive(req).unwrap()
            }
        });
        assert_eq!(results[1], vec![7.0]);
    }

    #[test]
    fn default_dissemination_barrier_synchronizes() {
        // Exercise the Transport::barrier default (dissemination over
        // send/recv) by wrapping the inproc mesh in a transport that does
        // NOT override barrier, so the trait default runs.
        use crate::inproc::InprocTransport;
        use crate::transport::{Transport, WireStats};
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct NoNativeBarrier(InprocTransport);
        impl Transport for NoNativeBarrier {
            fn rank(&self) -> usize {
                self.0.rank()
            }
            fn size(&self) -> usize {
                self.0.size()
            }
            fn isend(
                &self,
                to: usize,
                tag: u64,
                payload: &[f64],
            ) -> Result<SendRequest, CommError> {
                self.0.isend(to, tag, payload)
            }
            fn wait_recv(
                &self,
                req: RecvRequest,
                timeout: Duration,
            ) -> Result<(Vec<f64>, usize, u64), CommError> {
                self.0.wait_recv(req, timeout)
            }
            fn test_recv(&self, req: &mut RecvRequest) -> Result<bool, CommError> {
                self.0.test_recv(req)
            }
            fn wire_stats(&self) -> WireStats {
                self.0.wire_stats()
            }
        }

        for n in [1usize, 2, 3, 5, 8] {
            let mesh: Vec<NoNativeBarrier> = InprocTransport::mesh(n)
                .into_iter()
                .map(NoNativeBarrier)
                .collect();
            let arrivals = AtomicUsize::new(0);
            let released_early = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for t in mesh {
                    let (arrivals, released_early) = (&arrivals, &released_early);
                    scope.spawn(move || {
                        arrivals.fetch_add(1, Ordering::SeqCst);
                        t.barrier(Duration::from_secs(5)).unwrap();
                        if arrivals.load(Ordering::SeqCst) != n {
                            released_early.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
            });
            assert_eq!(released_early.load(Ordering::SeqCst), 0, "n={n}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::inproc::run_spmd;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// allreduce agrees with the sequential fold on every rank.
        #[test]
        fn allreduce_matches_sequential(
            values in proptest::collection::vec(-1.0e6f64..1.0e6, 2..6),
        ) {
            let n = values.len();
            let vals = values.clone();
            let results = run_spmd(n, move |comm| {
                comm.allreduce(vals[comm.rank()], ReduceOp::Max).unwrap()
            });
            let expect = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(results.iter().all(|&v| v == expect));

            let vals = values.clone();
            let sums = run_spmd(n, move |comm| {
                comm.allreduce(vals[comm.rank()], ReduceOp::Sum).unwrap()
            });
            let expect_sum: f64 = values.iter().sum();
            // gather-to-root makes the reduction order deterministic
            prop_assert!(sums.iter().all(|&v| (v - expect_sum).abs() < 1e-6));
        }

        /// Random neighbor exchanges deliver exactly the sent payloads.
        #[test]
        fn exchange_payload_integrity(
            payload in proptest::collection::vec(-1.0e9f64..1.0e9, 1..64),
            n in 2usize..5,
        ) {
            let p = payload.clone();
            let results = run_spmd(n, move |comm| {
                let r = comm.rank();
                let peer = if r % 2 == 0 { r + 1 } else { r - 1 };
                if peer >= comm.size() {
                    return true; // odd rank count: last even rank idles
                }
                let tagged: Vec<f64> =
                    p.iter().map(|v| v + r as f64).collect();
                let got = comm.sendrecv(peer, 1, &tagged, 1).unwrap();
                let expect: Vec<f64> =
                    p.iter().map(|v| v + peer as f64).collect();
                got == expect
            });
            prop_assert!(results.iter().all(|&ok| ok));
        }
    }
}
