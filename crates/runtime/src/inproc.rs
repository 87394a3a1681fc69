//! The in-process backend: every rank is a thread, messages travel over
//! crossbeam channels, and the barrier is `std::sync::Barrier`. This is
//! the zero-setup default transport behind [`run_spmd`]; the TCP backend
//! in `autocfd-runtime-net` implements the same [`Transport`] contract
//! across processes.

use crate::comm::{Comm, DEFAULT_TIMEOUT};
use crate::error::CommError;
use crate::transport::{InboxMsg, MatchingInbox, RecvRequest, SendRequest, Transport, WireStats};
use crossbeam::channel::{unbounded, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One rank's endpoint of an in-process (thread + channel) mesh.
pub struct InprocTransport {
    rank: usize,
    size: usize,
    /// `senders[d]` feeds rank `d`'s inbox.
    senders: Vec<Sender<InboxMsg>>,
    inbox: MatchingInbox,
    barrier: Arc<Barrier>,
    /// Monotonic causality stamp for outgoing messages (first send = 1).
    send_seq: AtomicU64,
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recvd: AtomicU64,
    bytes_recvd: AtomicU64,
}

impl InprocTransport {
    /// Build a fully connected `n`-rank mesh; element `r` is rank `r`'s
    /// endpoint.
    pub fn mesh(n: usize) -> Vec<InprocTransport> {
        assert!(n >= 1, "need at least one rank");
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<InboxMsg>();
            senders.push(tx);
            receivers.push(rx);
        }
        let barrier = Arc::new(Barrier::new(n));
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| InprocTransport {
                rank,
                size: n,
                senders: senders.clone(),
                inbox: MatchingInbox::new(rank, rx),
                barrier: barrier.clone(),
                send_seq: AtomicU64::new(0),
                msgs_sent: AtomicU64::new(0),
                bytes_sent: AtomicU64::new(0),
                msgs_recvd: AtomicU64::new(0),
                bytes_recvd: AtomicU64::new(0),
            })
            .collect()
    }
}

impl Transport for InprocTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&self, to: usize, tag: u64, payload: &[f64]) -> Result<SendRequest, CommError> {
        let wire_bytes = payload.len() * 8;
        let seq = self.send_seq.fetch_add(1, Ordering::Relaxed) + 1;
        // peer gone = program shutting down; ignore like MPI_Send to a
        // finalized rank would abort — tests catch it via recv timeouts.
        let _ = self.senders[to].send(InboxMsg::Data {
            from: self.rank,
            tag,
            payload: payload.to_vec(),
            wire_bytes,
            seq,
        });
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
        let (payload, wire_bytes, seq) = self.inbox.recv(req.from, req.tag, timeout)?;
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

    fn barrier(&self, _timeout: Duration) -> Result<(), CommError> {
        // threads share an address space, so the native barrier is both
        // cheaper and immune to tag-band traffic
        self.barrier.wait();
        Ok(())
    }

    fn wire_stats(&self) -> WireStats {
        WireStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_recvd: self.msgs_recvd.load(Ordering::Relaxed),
            bytes_recvd: self.bytes_recvd.load(Ordering::Relaxed),
        }
    }
}

/// Launch `n` ranks; each runs `f(comm)` on its own thread. Results are
/// returned in rank order. A panicking rank propagates its panic.
///
/// ```
/// use autocfd_runtime::{run_spmd, ReduceOp};
/// let maxima = run_spmd(4, |comm| {
///     comm.allreduce(comm.rank() as f64, ReduceOp::Max).unwrap()
/// });
/// assert_eq!(maxima, vec![3.0; 4]);
/// ```
pub fn run_spmd<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Sync,
{
    run_spmd_with_timeout(n, DEFAULT_TIMEOUT, f)
}

/// [`run_spmd`] with an explicit receive timeout (tests use short ones to
/// exercise deadlock surfacing).
pub fn run_spmd_with_timeout<T, F>(n: usize, timeout: Duration, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Sync,
{
    let epoch = Instant::now();
    let comms: Vec<Comm> = InprocTransport::mesh(n)
        .into_iter()
        .map(|t| Comm::new(Box::new(t), timeout, epoch))
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| scope.spawn(|| f(comm)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("SPMD rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const T: Duration = Duration::from_millis(500);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Any interleaving of `isend`/`irecv`/`test_recv`/`wait_recv`
        /// on the in-process mesh delivers every message exactly once,
        /// FIFO per `(from, tag)` pair: requests are retired in an
        /// arbitrary order, some by blocking wait and some by polling
        /// to completion first, and an unsatisfiable request is polled
        /// throughout without ever completing or stealing a message.
        #[test]
        fn interleaved_requests_deliver_fifo_per_tag_and_lose_nothing(
            tags in proptest::collection::vec(0u64..3, 1..16),
            order in proptest::collection::vec(0usize..1000, 16),
            polls in proptest::collection::vec(proptest::bool::ANY, 16),
        ) {
            let mut mesh = InprocTransport::mesh(2);
            let receiver = mesh.remove(0);
            let sender = mesh.remove(0);
            for (k, &tag) in tags.iter().enumerate() {
                let req = sender.isend(0, tag, &[k as f64]).unwrap();
                prop_assert_eq!(sender.wait_send(req, T).unwrap(), 8);
            }
            // a receive nobody will satisfy: polling it must report
            // "in flight" every time and never consume real traffic
            let mut ghost = receiver.irecv(1, 99);

            let mut reqs: Vec<RecvRequest> =
                tags.iter().map(|&tag| receiver.irecv(1, tag)).collect();
            let mut per_tag: Vec<Vec<f64>> = vec![Vec::new(); 3];
            let mut step = 0usize;
            while !reqs.is_empty() {
                prop_assert!(!receiver.test_recv(&mut ghost).unwrap());
                let i = order[step % order.len()] % reqs.len();
                let mut req = reqs.swap_remove(i);
                let tag = req.tag as usize;
                if polls[step % polls.len()] {
                    // poll to completion: the payload is cached in the
                    // handle, and the wait below must return it without
                    // touching the inbox again
                    while !receiver.test_recv(&mut req).unwrap() {}
                }
                let (payload, wire, seq) = receiver.wait_recv(req, T).unwrap();
                prop_assert_eq!(wire, 8);
                prop_assert!(seq >= 1, "every data message carries a causality stamp");
                prop_assert_eq!(payload.len(), 1);
                per_tag[tag].push(payload[0]);
                step += 1;
            }
            // FIFO per (from, tag): whatever order requests retire in,
            // each tag's payloads come back in its send order
            for (tag, got) in per_tag.iter().enumerate() {
                let sent: Vec<f64> = tags
                    .iter()
                    .enumerate()
                    .filter(|&(_, &t)| t as usize == tag)
                    .map(|(k, _)| k as f64)
                    .collect();
                prop_assert_eq!(got, &sent, "tag {}", tag);
            }
            // no lost completions, no duplicates
            let ws = receiver.wire_stats();
            prop_assert_eq!(ws.msgs_recvd, tags.len() as u64);
            prop_assert_eq!(ws.bytes_recvd, 8 * tags.len() as u64);
        }
    }
}
