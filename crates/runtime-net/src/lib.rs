#![warn(missing_docs)]

//! Multi-process TCP transport for the SPMD runtime.
//!
//! The paper runs its generated SPMD programs on a cluster of
//! workstations over Ethernet; this crate is the corresponding backend
//! for the reproduction. It implements the
//! [`Transport`](autocfd_runtime::Transport) contract of
//! `autocfd-runtime` over `std::net` TCP sockets, so the same generated
//! program, the same communicator, and the same profiler run unchanged
//! across OS processes:
//!
//! * [`frame`] — the length-prefixed binary wire format (one codec for
//!   handshake and data);
//! * [`Rendezvous`] — the launcher-side socket that assigns ranks to
//!   connecting workers and distributes the peer map;
//! * [`TcpTransport`] — one rank's endpoint: full-mesh connections with
//!   per-peer reader/writer threads and bounded write queues, feeding
//!   the same tag-matching inbox as the in-process backend;
//! * [`run_spmd_tcp`] — the in-process harness: every rank is a thread,
//!   but all traffic crosses real localhost sockets. Tests use it to
//!   check the TCP path bit-for-bit against the in-process transport;
//!   real multi-process runs use `acfc run --transport tcp`, which
//!   spawns one `acfd-worker` process per rank.

pub mod frame;
pub mod tcp;

pub use tcp::{MeshConfig, Rendezvous, TcpTransport, HEARTBEAT_INTERVAL};

use autocfd_runtime::{Comm, CommError};
use std::time::{Duration, Instant};

/// Run `n` ranks as threads that communicate over real localhost TCP
/// sockets: a rendezvous is served in the background, every rank joins
/// the mesh, runs `f`, and shuts its endpoint down. Results come back
/// in *rank* order (ranks are assigned by arrival, not spawn order).
///
/// Setup errors surface as `Err`; a panicking rank propagates its panic.
pub fn run_spmd_tcp<T, F>(n: usize, recv_timeout: Duration, f: F) -> Result<Vec<T>, CommError>
where
    T: Send,
    F: Fn(Comm) -> T + Sync,
{
    let rendezvous = Rendezvous::bind(n, Duration::from_secs(30))
        .map_err(|e| CommError::io(0, 0, e.to_string()))?;
    let addr = rendezvous.local_addr();
    let server = rendezvous.spawn();
    let epoch = Instant::now();

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| -> Result<(), CommError> {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                scope.spawn(|| -> Result<(usize, T), CommError> {
                    let transport = TcpTransport::join(&MeshConfig::new(addr))?;
                    let rank = autocfd_runtime::Transport::rank(&transport);
                    let comm = Comm::new(Box::new(transport), recv_timeout, epoch);
                    let out = f(comm); // dropping Comm shuts the endpoint down
                    Ok((rank, out))
                })
            })
            .collect();
        for h in handles {
            let (rank, out) = h.join().expect("SPMD rank panicked")?;
            slots[rank] = Some(out);
        }
        Ok(())
    })?;
    server.join().expect("rendezvous thread panicked")?;
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every rank reported"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_runtime::{CommErrorKind, ReduceOp};

    const T: Duration = Duration::from_secs(10);

    #[test]
    fn tcp_ring_pass() {
        let results = run_spmd_tcp(4, T, |comm| {
            let r = comm.rank();
            let n = comm.size();
            comm.send((r + 1) % n, 7, &[r as f64]).unwrap();
            comm.recv((r + n - 1) % n, 7).unwrap()[0]
        })
        .unwrap();
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn tcp_single_rank() {
        let results = run_spmd_tcp(1, T, |comm| {
            comm.barrier().unwrap();
            comm.allreduce(5.0, ReduceOp::Sum).unwrap()
        })
        .unwrap();
        assert_eq!(results, vec![5.0]);
    }

    #[test]
    fn tcp_collectives_and_tag_matching() {
        let results = run_spmd_tcp(4, T, |comm| {
            // out-of-order tags exercise parking over the wire
            if comm.rank() == 0 {
                comm.send(1, 1, &[1.0]).unwrap();
                comm.send(1, 2, &[2.0]).unwrap();
            } else if comm.rank() == 1 {
                let b = comm.recv(0, 2).unwrap()[0];
                let a = comm.recv(0, 1).unwrap()[0];
                assert_eq!((a, b), (1.0, 2.0));
            }
            comm.barrier().unwrap();
            comm.allreduce(comm.rank() as f64, ReduceOp::Max).unwrap()
        })
        .unwrap();
        assert_eq!(results, vec![3.0; 4]);
    }

    #[test]
    fn tcp_large_payload() {
        let big: Vec<f64> = (0..50_000).map(|i| i as f64 * 0.5).collect();
        let expect = big.clone();
        let results = run_spmd_tcp(2, T, move |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &big).unwrap();
                true
            } else {
                comm.recv(0, 3).unwrap() == expect
            }
        })
        .unwrap();
        assert!(results[1]);
    }

    #[test]
    fn tcp_wire_bytes_include_framing() {
        let results = run_spmd_tcp(2, T, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0.0; 10]).unwrap();
            } else {
                comm.recv(0, 1).unwrap();
            }
            comm.barrier().unwrap();
            comm.wire_stats()
        })
        .unwrap();
        // 10 f64s + 29-byte header = 109 wire bytes for the data frame;
        // barrier frames add more on both counters
        assert!(results[0].bytes_sent >= 109, "{:?}", results[0]);
        assert!(results[1].bytes_recvd >= 109, "{:?}", results[1]);
        assert_eq!(
            results[0].bytes_sent + results[1].bytes_sent,
            results[0].bytes_recvd + results[1].bytes_recvd,
            "every wire byte sent is received"
        );
    }

    #[test]
    fn tcp_peer_drop_surfaces_typed_error() {
        let results = run_spmd_tcp(2, Duration::from_secs(10), |comm| {
            comm.enter_phase("sync_0");
            if comm.rank() == 0 {
                // rank 1 exits without sending; the EOF must surface as a
                // typed disconnect, well before the 10 s recv timeout
                let t0 = Instant::now();
                let err = comm.recv(1, 42).unwrap_err();
                assert!(t0.elapsed() < Duration::from_secs(5), "did not hang");
                Some(err)
            } else {
                None
            }
        })
        .unwrap();
        let err = results[0].as_ref().expect("rank 0 reports the error");
        assert!(err.is_disconnected(), "{err}");
        assert_eq!(err.rank, 0);
        assert_eq!(err.peer, Some(1));
        assert_eq!(err.tag, Some(42));
        assert_eq!(err.phase.as_deref(), Some("sync_0"));
        assert!(matches!(err.kind, CommErrorKind::Disconnected(_)));
    }

    #[test]
    fn tcp_messages_sent_before_dying_still_arrive() {
        let results = run_spmd_tcp(2, T, |comm| {
            if comm.rank() == 1 {
                comm.send(0, 9, &[4.5]).unwrap();
                // then exit immediately
                None
            } else {
                let got = comm.recv(1, 9).unwrap()[0];
                let err = comm.recv(1, 10).unwrap_err();
                Some((got, err.is_disconnected()))
            }
        })
        .unwrap();
        let (got, disconnected) = results[0].unwrap();
        assert_eq!(got, 4.5);
        assert!(disconnected);
    }

    #[test]
    fn dead_peer_port_classified_as_peer_restarting() {
        use crate::frame::{encode, read_frame, Frame, FrameKind};
        use std::io::Write;

        let rv = Rendezvous::bind(2, Duration::from_secs(5)).unwrap();
        let addr = rv.local_addr();
        let server = rv.spawn();

        // a data port that refuses connections: bind, note the port, drop
        let dead_port = {
            let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap().port()
        };

        // fake rank 0: completes the rendezvous handshake advertising the
        // dead port, then stays alive holding its rendezvous socket — so
        // this is not a vanished peer, just an endpoint refusing
        // connections, which is exactly what a worker mid-restart looks
        // like from the outside
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let fake = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.write_all(&encode(&Frame {
                kind: FrameKind::Hello,
                from: 0,
                tag: u64::from(dead_port),
                seq: 0,
                payload: vec![],
            }))
            .unwrap();
            let welcome = read_frame(&mut s).unwrap().unwrap().0;
            assert_eq!(welcome.kind, FrameKind::Welcome);
            assert_eq!(welcome.from, 0, "fake worker must arrive first");
            let _peers = read_frame(&mut s).unwrap().unwrap().0;
            let _ = done_rx.recv_timeout(Duration::from_secs(10));
        });

        // let the fake worker claim rank 0, then join as rank 1, which
        // dials rank 0's (dead) data port through the backoff window
        std::thread::sleep(Duration::from_millis(100));
        let cfg = MeshConfig {
            rendezvous: addr,
            setup_timeout: Duration::from_millis(600),
        };
        let err = match TcpTransport::join(&cfg) {
            Err(e) => e,
            Ok(_) => panic!("join must fail: rank 0's data port is dead"),
        };
        assert!(err.is_peer_restarting(), "{err}");
        assert_eq!(err.peer, Some(0));
        assert!(err.to_string().contains("presumed restarting"), "{err}");
        let _ = done_tx.send(());
        fake.join().unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn heartbeat_distinguishes_slow_peer_from_dead() {
        let results = run_spmd_tcp(2, Duration::from_millis(150), |comm| {
            if comm.rank() == 0 {
                // slow, not dead: stay silent past the recv timeout
                std::thread::sleep(Duration::from_millis(700));
                comm.send(1, 7, &[2.5]).unwrap();
                None
            } else {
                // first wait times out, but the heartbeat stream tells
                // the error the peer is alive
                let err = comm.recv(0, 7).unwrap_err();
                assert!(err.is_timeout(), "{err}");
                let note = err.note.clone().expect("timeout carries a liveness note");
                assert!(note.contains("alive"), "{note}");
                // keep waiting: the late message must still land intact
                let got = loop {
                    match comm.recv(0, 7) {
                        Ok(v) => break v[0],
                        Err(e) => assert!(e.is_timeout(), "{e}"),
                    }
                };
                Some((got, comm.wire_stats()))
            }
        })
        .unwrap();
        let (got, stats) = results[1].expect("rank 1 reports");
        assert_eq!(got, 2.5);
        // heartbeats crossed the wire during the 700 ms stall but must
        // never leak into the message/byte counters
        assert_eq!(stats.msgs_recvd, 1, "{stats:?}");
    }

    #[test]
    fn back_to_back_small_frames_do_not_wait_for_delayed_acks() {
        // the combined-sync pattern: a halo frame, then a reduce value,
        // then wait for the reply. With Nagle on, the second frame sits
        // in the kernel until the peer's delayed ACK (~40 ms a round)
        let rounds = 50;
        let results = run_spmd_tcp(2, T, |comm| {
            let t0 = Instant::now();
            for _ in 0..rounds {
                if comm.rank() == 1 {
                    comm.send(0, 1, &[1.0; 16]).unwrap();
                    comm.send(0, 2, &[2.0]).unwrap();
                    comm.recv(0, 3).unwrap();
                } else {
                    comm.recv(1, 1).unwrap();
                    comm.recv(1, 2).unwrap();
                    comm.send(1, 3, &[3.0]).unwrap();
                }
            }
            t0.elapsed()
        })
        .unwrap();
        assert!(
            results[1] < Duration::from_millis(500),
            "{rounds} rounds took {:?}",
            results[1]
        );
    }

    #[test]
    fn mesh_launch_and_teardown_take_no_fixed_sleeps() {
        // one exchange, not an empty closure: the heartbeat thread must
        // be running when the endpoint shuts down
        let best = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                run_spmd_tcp(2, T, |comm| {
                    let peer = 1 - comm.rank();
                    comm.send(peer, 5, &[1.0]).unwrap();
                    comm.recv(peer, 5).unwrap()
                })
                .unwrap();
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(best < Duration::from_millis(10), "best launch {best:?}");
    }

    #[test]
    fn mesh_join_fails_typed_within_setup_timeout_when_a_peer_never_dials() {
        use crate::frame::{encode, read_frame, Frame, FrameKind};
        use std::io::Write;

        let rv = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let cfg = MeshConfig {
            rendezvous: rv.local_addr().unwrap(),
            setup_timeout: Duration::from_millis(600),
        };
        let setup_timeout = cfg.setup_timeout;
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let t0 = Instant::now();
            let res = TcpTransport::join(&cfg);
            let _ = tx.send((res.map(|_| ()), t0.elapsed()));
        });

        // play the rendezvous: the worker becomes rank 0 of 2, so it
        // waits for rank 1's dial — and rank 1 never dials
        let (mut s, _) = rv.accept().unwrap();
        let hello = read_frame(&mut s).unwrap().unwrap().0;
        for (kind, payload) in [
            (FrameKind::Welcome, vec![]),
            // rank 0 dials no one, so rank 1's port is never used
            (FrameKind::Peers, vec![hello.tag as f64; 2]),
        ] {
            s.write_all(&encode(&Frame {
                kind,
                from: 0,
                tag: 2,
                seq: 0,
                payload,
            }))
            .unwrap();
        }

        // watchdog: a join that ignores its deadline never answers
        let (res, took) = rx
            .recv_timeout(4 * setup_timeout)
            .expect("join still blocked long after its setup timeout");
        worker.join().unwrap();
        let err = res.unwrap_err();
        assert!(took < 2 * setup_timeout, "join took {took:?}");
        assert!(matches!(err.kind, CommErrorKind::Protocol(_)), "{err}");
        assert_eq!(err.rank, 0);
        assert!(
            err.to_string()
                .contains("0/1 higher-rank peers connected, 1 missing"),
            "{err}"
        );
    }

    #[test]
    fn rendezvous_times_out_when_workers_missing() {
        let rv = Rendezvous::bind(3, Duration::from_millis(200)).unwrap();
        let addr = rv.local_addr();
        let server = rv.spawn();
        // only one of three workers shows up
        let worker = std::thread::spawn(move || TcpTransport::join(&MeshConfig::new(addr)));
        let res = server.join().unwrap();
        let err = res.unwrap_err();
        assert!(matches!(err.kind, CommErrorKind::Protocol(_)), "{err}");
        assert!(err.to_string().contains("1/3"), "{err}");
        let _ = worker.join(); // worker fails too; don't leak the thread
    }
}
