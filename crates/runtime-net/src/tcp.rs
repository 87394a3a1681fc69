//! The multi-process TCP backend.
//!
//! Topology: a *rendezvous* socket (opened by the launcher) assigns
//! ranks to connecting workers in arrival order and tells everyone
//! everyone else's data port; the workers then build a full mesh of TCP
//! connections (rank `r` dials every lower rank, accepts from every
//! higher one). Every stream is `TCP_NODELAY`, and every blocking setup
//! step (accept, Hello, Welcome, Peers) waits only for what is left of
//! the one setup deadline. Each peer connection gets two I/O threads:
//!
//! * a **writer** draining a bounded queue of encoded frames onto the
//!   socket — `send` enqueues and returns, so the deadlock-avoiding
//!   buffered-send semantics of the in-process backend carry over (the
//!   queue bound plus the kernel socket buffer provide backpressure
//!   without ever blocking the *receiving* side);
//! * a **reader** decoding frames into the shared [`MatchingInbox`] —
//!   reading continues regardless of what the application is waiting
//!   for, so a symmetric exchange cannot wedge. A read error or EOF
//!   turns into [`InboxMsg::PeerGone`], which surfaces as a typed
//!   [`CommError`] only for receives that actually target the dead peer
//!   (after draining everything it sent first).
//!
//! Fault-tolerance hardening on top of the mesh:
//!
//! * a **heartbeat** thread drops a tiny liveness frame into every write
//!   queue each [`HEARTBEAT_INTERVAL`] (skipping full queues — data in
//!   flight already proves liveness). Heartbeats never enter the inbox
//!   or the wire counters; their only job is to keep each peer's
//!   *last-seen* clock fresh, so a receive timeout can say whether the
//!   peer is alive-but-slow or silent/hung;
//! * mesh dialing uses bounded **exponential backoff with jitter**
//!   (`connect_with_backoff`), and a peer whose data port still
//!   refuses connections when the backoff window closes is classified
//!   as [`CommErrorKind::PeerRestarting`](autocfd_runtime::CommErrorKind)
//!   — its rendezvous claim proves a worker existed there, so a
//!   supervisor should resume from a checkpoint rather than declare the
//!   run dead.

use crate::frame::{encode, encode_parts, read_frame, Frame, FrameKind};
use autocfd_runtime::{
    CommError, InboxMsg, MatchingInbox, RecvRequest, SendRequest, Transport, WireStats,
};
use crossbeam::channel::{bounded, unbounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames a peer writer queues before `send` blocks for backpressure.
const WRITE_QUEUE_FRAMES: usize = 64;

/// How often the heartbeat thread pulses each peer connection. A peer
/// is reported "alive but slow" while its last frame (data or
/// heartbeat) is at most three intervals old, "silent" beyond that.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

/// How mesh setup behaves.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Rendezvous address to dial.
    pub rendezvous: SocketAddr,
    /// Deadline for the whole handshake + mesh construction.
    pub setup_timeout: Duration,
}

impl MeshConfig {
    /// Config with the default 30 s setup timeout.
    pub fn new(rendezvous: SocketAddr) -> MeshConfig {
        MeshConfig {
            rendezvous,
            setup_timeout: Duration::from_secs(30),
        }
    }
}

fn proto(rank: usize, detail: impl Into<String>) -> CommError {
    CommError::protocol(rank, detail)
}

fn io_err(rank: usize, peer: usize, e: &std::io::Error) -> CommError {
    CommError::io(rank, peer, e.to_string())
}

/// Turn off Nagle's algorithm on a mesh or handshake stream. Every
/// exchange here is write-write-read with small frames (halo, reduce
/// value, then wait for the broadcast; Welcome, Peers, then the mesh),
/// which Nagle would hold back until the peer's delayed ACK — ~40 ms a
/// round.
fn nodelay(s: TcpStream, rank: usize, peer: usize) -> Result<TcpStream, CommError> {
    s.set_nodelay(true).map_err(|e| io_err(rank, peer, &e))?;
    Ok(s)
}

/// Time left before `deadline`, at least a millisecond (a zero socket
/// timeout means "none").
fn time_left(deadline: Instant) -> Duration {
    deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1))
}

/// Accept one connection before `deadline` (`Ok(None)` once it passes).
/// The listener is polled without blocking; the idle wait starts at
/// 20 µs and doubles up to 2 ms, so a dial already in flight is taken
/// almost at once and a peer that never dials cannot hold setup past the
/// deadline. The stream comes back blocking, with nodelay set.
fn accept_until(
    listener: &TcpListener,
    deadline: Instant,
    rank: usize,
) -> Result<Option<TcpStream>, CommError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err(rank, 0, &e))?;
    let mut idle = Duration::from_micros(20);
    loop {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false).map_err(|e| io_err(rank, 0, &e))?;
                return nodelay(s, rank, 0).map(Some);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let now = Instant::now();
                if now >= deadline {
                    return Ok(None);
                }
                std::thread::sleep(idle.min(deadline - now));
                idle = (idle * 2).min(Duration::from_millis(2));
            }
            Err(e) => return Err(io_err(rank, 0, &e)),
        }
    }
}

/// Read the `Hello` that opens every accepted connection, waiting no
/// longer than what is left of the setup deadline.
fn read_hello(s: &mut TcpStream, deadline: Instant, rank: usize) -> Result<Frame, CommError> {
    s.set_read_timeout(Some(time_left(deadline)))
        .map_err(|e| io_err(rank, 0, &e))?;
    let hello = read_frame(s)
        .map_err(|e| io_err(rank, 0, &e))?
        .ok_or_else(|| proto(rank, "peer closed before Hello"))?
        .0;
    if hello.kind != FrameKind::Hello {
        return Err(proto(rank, format!("expected Hello, got {:?}", hello.kind)));
    }
    Ok(hello)
}

/// The rendezvous point: accepts `n` workers, assigns ranks in arrival
/// order, and distributes the port map. Run by the launcher (or by the
/// test harness) before any worker starts.
pub struct Rendezvous {
    listener: TcpListener,
    n: usize,
    timeout: Duration,
}

impl Rendezvous {
    /// Bind on `127.0.0.1:0`; the actual address comes from
    /// [`Rendezvous::local_addr`].
    pub fn bind(n: usize, timeout: Duration) -> std::io::Result<Rendezvous> {
        assert!(n >= 1, "need at least one rank");
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        Ok(Rendezvous {
            listener,
            n,
            timeout,
        })
    }

    /// The address workers must dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// Serve the handshake to completion (blocking): accept `n` Hellos,
    /// send each worker its Welcome immediately, then the Peers map once
    /// everyone has arrived.
    pub fn serve(self) -> Result<(), CommError> {
        let deadline = Instant::now() + self.timeout;
        let mut workers: Vec<(TcpStream, u16)> = Vec::with_capacity(self.n);
        while workers.len() < self.n {
            let Some(mut s) = accept_until(&self.listener, deadline, 0)? else {
                return Err(proto(
                    0,
                    format!(
                        "rendezvous timeout: {}/{} workers arrived",
                        workers.len(),
                        self.n
                    ),
                ));
            };
            let hello = read_hello(&mut s, deadline, 0)?;
            let port = u16::try_from(hello.tag)
                .map_err(|_| proto(0, format!("bad data port {}", hello.tag)))?;
            let rank = workers.len() as u32;
            s.write_all(&encode(&Frame {
                kind: FrameKind::Welcome,
                from: rank,
                tag: self.n as u64,
                seq: 0,
                payload: vec![],
            }))
            .map_err(|e| io_err(0, rank as usize, &e))?;
            workers.push((s, port));
        }
        let ports: Vec<f64> = workers.iter().map(|&(_, p)| f64::from(p)).collect();
        let peers = encode(&Frame {
            kind: FrameKind::Peers,
            from: 0,
            tag: self.n as u64,
            seq: 0,
            payload: ports,
        });
        for (rank, (s, _)) in workers.iter_mut().enumerate() {
            s.write_all(&peers).map_err(|e| io_err(0, rank, &e))?;
        }
        Ok(())
    }

    /// [`Rendezvous::serve`] on its own thread.
    pub fn spawn(self) -> JoinHandle<Result<(), CommError>> {
        std::thread::spawn(move || self.serve())
    }
}

/// Per-peer bounded write queues, `None` at the self slot.
type WriterQueues = Vec<Option<Sender<Vec<u8>>>>;

/// One rank's endpoint of a TCP process mesh.
pub struct TcpTransport {
    rank: usize,
    size: usize,
    /// Per-peer bounded write queues (`None` at the self slot); taken on
    /// shutdown so writers flush and close. Behind an `Arc` because the
    /// heartbeat thread pulses the same queues.
    writers: Arc<Mutex<WriterQueues>>,
    writer_handles: Mutex<Vec<JoinHandle<()>>>,
    inbox: MatchingInbox,
    /// Milliseconds since `liveness_epoch` at which each peer's reader
    /// last decoded *any* frame (data or heartbeat); slot 0 at mesh-up.
    last_seen: Arc<Vec<AtomicU64>>,
    liveness_epoch: Instant,
    /// The heartbeat thread and the sender whose drop stops it.
    heartbeat: Mutex<Option<(Sender<()>, JoinHandle<()>)>>,
    /// Monotonic causality stamp for outgoing data frames (first = 1).
    send_seq: AtomicU64,
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recvd: AtomicU64,
    bytes_recvd: AtomicU64,
}

impl TcpTransport {
    /// Join the mesh behind `cfg.rendezvous`: handshake for a rank
    /// assignment, connect the full mesh, start the per-peer I/O
    /// threads. Blocks until the mesh is up or `setup_timeout` passes.
    pub fn join(cfg: &MeshConfig) -> Result<TcpTransport, CommError> {
        let deadline = Instant::now() + cfg.setup_timeout;

        // data listener first: its port goes into the Hello
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io_err(0, 0, &e))?;
        let my_port = listener.local_addr().map_err(|e| io_err(0, 0, &e))?.port();

        // ---- rendezvous handshake (a dead rendezvous is a launcher
        // failure, not a restarting peer — keep the plain I/O error)
        let rv = connect_with_backoff(cfg.rendezvous, deadline, u64::from(my_port))
            .map_err(|e| io_err(0, 0, &e))?;
        let mut rv = nodelay(rv, 0, 0)?;
        rv.set_read_timeout(Some(time_left(deadline)))
            .map_err(|e| io_err(0, 0, &e))?;
        rv.write_all(&encode(&Frame {
            kind: FrameKind::Hello,
            from: 0,
            tag: u64::from(my_port),
            seq: 0,
            payload: vec![],
        }))
        .map_err(|e| io_err(0, 0, &e))?;
        let welcome = read_frame(&mut rv)
            .map_err(|e| io_err(0, 0, &e))?
            .ok_or_else(|| proto(0, "rendezvous closed before Welcome"))?
            .0;
        if welcome.kind != FrameKind::Welcome {
            return Err(proto(
                0,
                format!("expected Welcome, got {:?}", welcome.kind),
            ));
        }
        let rank = welcome.from as usize;
        let size = usize::try_from(welcome.tag)
            .map_err(|_| proto(rank, format!("bad rank count {}", welcome.tag)))?;
        if size == 0 || rank >= size {
            return Err(proto(rank, format!("rank {rank} out of range for {size}")));
        }
        // Peers comes once every worker has arrived: wait out the rest
        // of the setup deadline, not a fresh timeout
        rv.set_read_timeout(Some(time_left(deadline)))
            .map_err(|e| io_err(rank, 0, &e))?;
        let peers_frame = read_frame(&mut rv)
            .map_err(|e| io_err(rank, 0, &e))?
            .ok_or_else(|| proto(rank, "rendezvous closed before Peers"))?
            .0;
        if peers_frame.kind != FrameKind::Peers || peers_frame.payload.len() != size {
            return Err(proto(rank, "bad Peers frame"));
        }
        let ports: Vec<u16> = peers_frame
            .payload
            .iter()
            .map(|&p| {
                if p.fract() == 0.0 && (1.0..=f64::from(u16::MAX)).contains(&p) {
                    Ok(p as u16)
                } else {
                    Err(proto(rank, format!("bad peer port {p}")))
                }
            })
            .collect::<Result<_, _>>()?;
        drop(rv);

        // ---- full mesh: dial lower ranks, accept higher ones
        let mut streams: HashMap<usize, TcpStream> = HashMap::new();
        for (peer, &port) in ports.iter().enumerate().take(rank) {
            let seed = ((rank as u64) << 16) | peer as u64;
            let s = connect_with_backoff(SocketAddr::from(([127, 0, 0, 1], port)), deadline, seed)
                .map_err(|e| {
                    // the peer claimed this port at the rendezvous, so a
                    // worker *was* there: refusing connections through
                    // the whole backoff window reads as a restart in
                    // progress, not a vanished peer
                    CommError::peer_restarting(
                        rank,
                        peer,
                        format!("data port {port} refused through backoff window: {e}"),
                    )
                })?;
            let mut s = nodelay(s, rank, peer)?;
            s.write_all(&encode(&Frame {
                kind: FrameKind::Hello,
                from: rank as u32,
                tag: 0,
                seq: 0,
                payload: vec![],
            }))
            .map_err(|e| io_err(rank, peer, &e))?;
            streams.insert(peer, s);
        }
        while streams.len() < size - 1 {
            let Some(mut s) = accept_until(&listener, deadline, rank)? else {
                let higher = size - 1 - rank;
                let arrived = streams.len() - rank;
                return Err(proto(
                    rank,
                    format!(
                        "mesh setup timeout: {arrived}/{higher} higher-rank peers connected, {} missing",
                        higher - arrived
                    ),
                ));
            };
            let peer = read_hello(&mut s, deadline, rank)?.from as usize;
            if peer <= rank || peer >= size || streams.contains_key(&peer) {
                return Err(proto(
                    rank,
                    format!("unexpected mesh Hello from rank {peer}"),
                ));
            }
            s.set_read_timeout(None)
                .map_err(|e| io_err(rank, peer, &e))?;
            streams.insert(peer, s);
        }

        // ---- I/O threads
        let liveness_epoch = Instant::now();
        let last_seen: Arc<Vec<AtomicU64>> =
            Arc::new((0..size).map(|_| AtomicU64::new(0)).collect());
        let (inbox_tx, inbox_rx) = unbounded::<InboxMsg>();
        let mut writers: WriterQueues = (0..size).map(|_| None).collect();
        let mut writer_handles = Vec::with_capacity(size.saturating_sub(1));
        for (peer, stream) in streams {
            let reader = stream.try_clone().map_err(|e| io_err(rank, peer, &e))?;
            let inbox_tx = inbox_tx.clone();
            let seen = Arc::clone(&last_seen);
            std::thread::spawn(move || run_reader(peer, reader, inbox_tx, seen, liveness_epoch));

            let (wtx, wrx) = bounded::<Vec<u8>>(WRITE_QUEUE_FRAMES);
            writers[peer] = Some(wtx);
            writer_handles.push(std::thread::spawn(move || {
                let mut stream = stream;
                while let Ok(buf) = wrx.recv() {
                    if stream.write_all(&buf).is_err() {
                        // receiver side will learn via its reader; draining
                        // the queue keeps senders from blocking forever
                        break;
                    }
                }
                let _ = stream.shutdown(Shutdown::Write);
            }));
        }
        drop(inbox_tx);

        // ---- heartbeat thread: pulse every peer queue so readers on the
        // other side keep their last-seen clocks fresh even when the
        // program computes for a long time between exchanges
        let writers = Arc::new(Mutex::new(writers));
        let heartbeat = if size > 1 {
            let writers = Arc::clone(&writers);
            let beat = encode(&Frame {
                kind: FrameKind::Heartbeat,
                from: rank as u32,
                tag: 0,
                seq: 0,
                payload: vec![],
            });
            // one interruptible wait per interval: shutdown drops the
            // stop sender, which ends the wait at once
            let (stop, stopped) = bounded::<()>(1);
            let handle = std::thread::spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(HEARTBEAT_INTERVAL)
                {
                    for w in writers.lock().iter().flatten() {
                        // a full queue means data frames are in flight,
                        // which proves liveness better than a heartbeat
                        let _ = w.try_send(beat.clone());
                    }
                }
            });
            Some((stop, handle))
        } else {
            None
        };

        Ok(TcpTransport {
            rank,
            size,
            writers,
            writer_handles: Mutex::new(writer_handles),
            inbox: MatchingInbox::new(rank, inbox_rx),
            last_seen,
            liveness_epoch,
            heartbeat: Mutex::new(heartbeat),
            send_seq: AtomicU64::new(0),
            msgs_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            msgs_recvd: AtomicU64::new(0),
            bytes_recvd: AtomicU64::new(0),
        })
    }

    /// On a receive timeout towards `from`, attach what the heartbeat
    /// stream knows: a peer whose connection carried *any* frame within
    /// the last three heartbeat intervals is alive but slow (keep
    /// waiting / suspect a schedule bug); one silent longer than that is
    /// hung or dead (restart it and resume from a checkpoint).
    fn annotate_liveness(&self, err: CommError, from: usize) -> CommError {
        if !err.is_timeout() || from == self.rank || from >= self.last_seen.len() {
            return err;
        }
        let now = self.liveness_epoch.elapsed().as_millis() as u64;
        let age = now.saturating_sub(self.last_seen[from].load(Ordering::Relaxed));
        let limit = 3 * HEARTBEAT_INTERVAL.as_millis() as u64;
        if age <= limit {
            err.with_note(format!(
                "peer {from} alive (last frame {age} ms ago) — slow, not gone"
            ))
        } else {
            err.with_note(format!("peer {from} silent for {age} ms — hung or dead"))
        }
    }
}

/// Reader thread body: decode frames into the inbox until the peer goes
/// away, then report how it went away. Every decoded frame — data or
/// heartbeat — refreshes the peer's last-seen clock; heartbeats are
/// otherwise swallowed here (never forwarded, never counted).
fn run_reader(
    peer: usize,
    mut stream: TcpStream,
    inbox: Sender<InboxMsg>,
    last_seen: Arc<Vec<AtomicU64>>,
    epoch: Instant,
) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some((frame, _))) if frame.kind == FrameKind::Heartbeat => {
                last_seen[peer].store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
            }
            Ok(Some((frame, wire_bytes))) if frame.kind == FrameKind::Data => {
                last_seen[peer].store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
                if inbox
                    .send(InboxMsg::Data {
                        from: peer,
                        tag: frame.tag,
                        payload: frame.payload,
                        wire_bytes,
                        seq: frame.seq,
                    })
                    .is_err()
                {
                    return; // our own rank shut down
                }
            }
            Ok(Some((frame, _))) => {
                let _ = inbox.send(InboxMsg::PeerGone {
                    peer,
                    detail: format!("unexpected {:?} frame mid-stream", frame.kind),
                });
                return;
            }
            Ok(None) => {
                let _ = inbox.send(InboxMsg::PeerGone {
                    peer,
                    detail: "connection closed".to_string(),
                });
                return;
            }
            Err(e) => {
                let _ = inbox.send(InboxMsg::PeerGone {
                    peer,
                    detail: e.to_string(),
                });
                return;
            }
        }
    }
}

/// Dial with bounded exponential backoff: base 10 ms doubling to a
/// 500 ms cap, each sleep stretched by xorshift-derived jitter (seeded
/// per caller) so a cohort of workers re-dialing a restarting peer does
/// not reconnect in lockstep. Returns the last dial error once
/// `deadline` passes.
fn connect_with_backoff(
    addr: SocketAddr,
    deadline: Instant,
    seed: u64,
) -> std::io::Result<TcpStream> {
    let mut state = seed | 1; // xorshift must not start at zero
    let mut attempt = 0u32;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let dial_timeout = Duration::from_secs(2)
            .min(remaining)
            .max(Duration::from_millis(10));
        match TcpStream::connect_timeout(&addr, dial_timeout) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                let base_ms = (10u64 << attempt.min(6)).min(500);
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let jitter_ms = state % (base_ms / 2 + 1);
                let sleep = Duration::from_millis(base_ms + jitter_ms)
                    .min(deadline.saturating_duration_since(Instant::now()));
                std::thread::sleep(sleep);
                attempt += 1;
            }
        }
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&self, to: usize, tag: u64, payload: &[f64]) -> Result<SendRequest, CommError> {
        let seq = self.send_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let wire = encode_parts(FrameKind::Data, self.rank as u32, tag, seq, payload);
        let wire_bytes = wire.len();
        let tx = {
            let writers = self.writers.lock();
            writers.get(to).and_then(|w| w.clone()).ok_or_else(|| {
                CommError::disconnected(self.rank, to, "connection shut down").with_tag(tag)
            })?
        };
        // handing the frame to the writer queue completes the request:
        // the writer thread drains it onto the socket asynchronously
        tx.send(wire).map_err(|_| {
            CommError::disconnected(self.rank, to, "peer connection closed").with_tag(tag)
        })?;
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent
            .fetch_add(wire_bytes as u64, Ordering::Relaxed);
        Ok(SendRequest {
            to,
            tag,
            wire_bytes,
            seq,
        })
    }

    fn wait_recv(
        &self,
        mut req: RecvRequest,
        timeout: Duration,
    ) -> Result<(Vec<f64>, usize, u64), CommError> {
        // test_recv already pulled it off the inbox (and counted it)
        if let Some(found) = req.take_done() {
            return Ok(found);
        }
        let (payload, wire_bytes, seq) = self
            .inbox
            .recv(req.from, req.tag, timeout)
            .map_err(|e| self.annotate_liveness(e, req.from))?;
        self.msgs_recvd.fetch_add(1, Ordering::Relaxed);
        self.bytes_recvd
            .fetch_add(wire_bytes as u64, Ordering::Relaxed);
        Ok((payload, wire_bytes, seq))
    }

    fn test_recv(&self, req: &mut RecvRequest) -> Result<bool, CommError> {
        if req.is_done() {
            return Ok(true);
        }
        match self.inbox.try_recv(req.from, req.tag)? {
            Some((payload, wire_bytes, seq)) => {
                self.msgs_recvd.fetch_add(1, Ordering::Relaxed);
                self.bytes_recvd
                    .fetch_add(wire_bytes as u64, Ordering::Relaxed);
                req.complete(payload, wire_bytes, seq);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn wire_stats(&self) -> WireStats {
        WireStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_recvd: self.msgs_recvd.load(Ordering::Relaxed),
            bytes_recvd: self.bytes_recvd.load(Ordering::Relaxed),
        }
    }

    fn shutdown(&self) {
        // stop the heartbeat first so it cannot race the queue teardown;
        // dropping its stop sender wakes it, so this join does not wait
        if let Some((stop, h)) = self.heartbeat.lock().take() {
            drop(stop);
            let _ = h.join();
        }
        // dropping the queue senders makes each writer flush its backlog,
        // half-close the socket, and exit; peers then see clean EOFs
        for w in self.writers.lock().iter_mut() {
            *w = None;
        }
        for h in self.writer_handles.lock().drain(..) {
            let _ = h.join();
        }
        // reader threads exit on their own once every peer half-closes
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}
