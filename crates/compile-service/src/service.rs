//! The service: accept loop, request dispatch, and single-flight compile
//! deduplication.
//!
//! One thread per connection; requests on a connection are served in
//! order, connections concurrently. The pipeline itself is injected as
//! a [`Backend`] (the `autocfd` crate implements it), which keeps this
//! crate free of a dependency cycle with the client plumbing.
//!
//! Failure containment, by design:
//!
//! * a malformed request or failed compile produces a typed error
//!   `Response` on that connection — the accept loop and every other
//!   connection are untouched;
//! * a client that vanishes fails only its own connection's writes;
//! * a poisoned internal lock (a panicking backend) is treated as an
//!   internal error for the request that observes it.

use crate::cache::{CacheEntry, PlanCache};
use crate::proto::{err_response, ok_response, CompileReq, ErrorClass, Request, ServiceError};
use autocfd_codegen::PlanKey;
use autocfd_runtime_net::frame::{encode, read_frame, Frame, FrameKind};
use serde::json::Value;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The compile pipeline, injected by the embedder.
pub trait Backend: Send + Sync + 'static {
    /// Run frontend + analysis + restructuring on `req` and return the
    /// plan in `codegen::plan_json` form. Called only on a cache miss
    /// (and once per digest under concurrent misses).
    fn compile(&self, req: &CompileReq) -> Result<String, ServiceError>;
}

/// Service tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// LRU bound (entries). 0 is clamped to 1.
    pub capacity: usize,
}

struct Flight {
    slot: Mutex<Option<Result<CacheEntry, ServiceError>>>,
    cv: Condvar,
}

struct State {
    backend: Box<dyn Backend>,
    cache: Mutex<PlanCache>,
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    /// Times the full pipeline actually ran — the counter that proves
    /// warm-cache requests skip the frontend.
    pipeline_invocations: AtomicU64,
    shutdown: AtomicBool,
}

fn internal(msg: impl Into<String>) -> ServiceError {
    ServiceError::new(ErrorClass::Internal, msg)
}

impl State {
    /// Serve `req` from the cache or compile it exactly once, no matter
    /// how many identical requests are in flight. Returns the entry and
    /// how it was obtained (`hit` / `miss` / `coalesced`).
    fn lookup_or_compile(
        self: &Arc<State>,
        req: &CompileReq,
    ) -> Result<(CacheEntry, &'static str), ServiceError> {
        let digest = PlanKey::new(
            &req.source,
            &req.parts,
            req.distance,
            req.optimize,
            req.engine,
            req.threads,
        )
        .digest();
        if let Some(entry) = self.cache_lock()?.get(&digest) {
            return Ok((entry, "hit"));
        }
        let (flight, leader) = {
            let mut inflight = self
                .inflight
                .lock()
                .map_err(|_| internal("inflight map poisoned"))?;
            match inflight.get(&digest) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        slot: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    inflight.insert(digest.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if !leader {
            // Follower: wait for the leader's result and share it.
            let mut slot = flight
                .slot
                .lock()
                .map_err(|_| internal("flight poisoned"))?;
            while slot.is_none() {
                slot = flight
                    .cv
                    .wait(slot)
                    .map_err(|_| internal("flight poisoned"))?;
            }
            return match slot.clone().expect("loop exits only when set") {
                Ok(entry) => Ok((entry, "coalesced")),
                Err(e) => Err(e),
            };
        }
        // Leader: someone may have filled the cache between our miss and
        // claiming the flight; a second lookup is cheap, a duplicate
        // compile is not. (Bind the lookup to a local first — matching
        // on `self.cache_lock()?.get(..)` directly would keep the guard
        // alive across the whole match, deadlocking on the `insert`.)
        let recheck = self.cache_lock()?.recheck(&digest);
        let result = match recheck {
            Some(entry) => Ok((entry, "hit")),
            None => {
                self.pipeline_invocations.fetch_add(1, Ordering::SeqCst);
                self.backend.compile(req).and_then(|plan_json| {
                    let entry = CacheEntry {
                        digest: digest.clone(),
                        plan_json,
                    };
                    self.cache_lock()?.insert(entry.clone());
                    Ok((entry, "miss"))
                })
            }
        };
        // Publish to followers, then retire the flight.
        {
            let mut slot = flight
                .slot
                .lock()
                .map_err(|_| internal("flight poisoned"))?;
            *slot = Some(result.clone().map(|(entry, _)| entry));
            flight.cv.notify_all();
        }
        if let Ok(mut inflight) = self.inflight.lock() {
            inflight.remove(&digest);
        }
        result
    }

    fn cache_lock(&self) -> Result<std::sync::MutexGuard<'_, PlanCache>, ServiceError> {
        self.cache.lock().map_err(|_| internal("cache poisoned"))
    }

    fn stats_response(&self) -> String {
        let cache = self.cache.lock().map(|c| c.stats()).unwrap_or_default();
        ok_response(vec![
            ("hits", Value::Int(cache.hits as i128)),
            ("misses", Value::Int(cache.misses as i128)),
            ("evictions", Value::Int(cache.evictions as i128)),
        ])
    }
}

/// A bound, not-yet-serving service.
pub struct Service {
    listener: TcpListener,
    state: Arc<State>,
}

/// A serving service; keeps the bound address and a shutdown switch.
pub struct ServiceHandle {
    addr: SocketAddr,
    state: Arc<State>,
    join: std::thread::JoinHandle<()>,
}

impl Service {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) around `backend`.
    pub fn bind(
        addr: &str,
        backend: Box<dyn Backend>,
        config: ServiceConfig,
    ) -> io::Result<Service> {
        Ok(Service {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(State {
                backend,
                cache: Mutex::new(PlanCache::in_memory(config.capacity)),
                inflight: Mutex::new(HashMap::new()),
                pipeline_invocations: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// Serve until shut down, one thread per connection. Blocks.
    fn serve(self) {
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = conn {
                let state = Arc::clone(&self.state);
                std::thread::spawn(move || handle_conn(state, stream));
            }
        }
    }

    /// Serve on a background thread; the handle shuts it down cleanly.
    pub fn spawn(self) -> io::Result<ServiceHandle> {
        let addr = self.listener.local_addr()?;
        let state = Arc::clone(&self.state);
        let join = std::thread::spawn(move || self.serve());
        Ok(ServiceHandle { addr, state, join })
    }
}

impl ServiceHandle {
    /// The service's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Times the pipeline actually ran (the warm-cache-skips-frontend
    /// proof).
    pub fn pipeline_invocations(&self) -> u64 {
        self.state.pipeline_invocations.load(Ordering::SeqCst)
    }

    /// Stop accepting and join the accept loop. Connections already
    /// being served run to completion on their own threads.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // unblock accept()
        let _ = self.join.join();
    }
}

fn handle_conn(state: Arc<State>, mut stream: TcpStream) {
    // a read error means the client vanished: only this connection ends
    while let Ok(Some((frame, _))) = read_frame(&mut stream) {
        let body = serve_request(&state, &frame);
        let reply = Frame::from_text(FrameKind::Response, 0, &body);
        if stream.write_all(&encode(&reply)).is_err() {
            return; // could not write back: the client is gone
        }
    }
}

/// Serve one request frame; request-level failures are error responses.
fn serve_request(state: &Arc<State>, frame: &Frame) -> String {
    if frame.kind != FrameKind::Request {
        return err_response(&ServiceError::new(
            ErrorClass::BadRequest,
            format!("expected a request frame, got {:?}", frame.kind),
        ));
    }
    let req = frame
        .text()
        .map_err(|e| ServiceError::new(ErrorClass::BadRequest, format!("request frame: {e}")))
        .and_then(|text| Request::from_json(&text));
    match req {
        Err(e) => err_response(&e),
        Ok(Request::Stats) => state.stats_response(),
        Ok(Request::Compile(c)) => match state.lookup_or_compile(&c) {
            Ok((entry, cache)) => ok_response(vec![
                ("cache", Value::Str(cache.into())),
                ("digest", Value::Str(entry.digest)),
                ("plan", Value::Str(entry.plan_json)),
            ]),
            Err(e) => err_response(&e),
        },
    }
}
